"""Free-group words as int64 keys.

``WordBox`` keys the reduced words of F_k for the set functions of
``groups``, the measures of ``measures`` and the Berg-Christensen walk, as a
``groups.KeyBox`` keys the cells of an abelian kind.  ``groups._word_box``
loads this module on first use.
"""

from __future__ import annotations

import numpy as np

from .errors import DescriptorMismatchError


class WordBox:
    """The reduced words of F_k as int64 keys: a word of n letters is the
    sentinel bit 2^{nb} plus its letter codes, b = (2k - 1).bit_length()
    bits each, the first letter most significant.  A letter l codes as
    l + k for l < 0 and l + k - 1 for l > 0, so the codes 0..2k - 1 run in
    letter order, the inverse of code c is 2k - 1 - c, and the keys of
    distinct words sort as their ``sort_key`` does: by length, then
    letter by letter.  Words of more than ``letters`` = floor(62 / b)
    letters (31 on F2, 20 on F3 and F4) do not fit and raise
    ``DescriptorMismatchError`` naming ``what`` and that limit.

    It answers what a ``KeyBox`` answers: ``add`` composes keys, x-major,
    so ``zero``, the offset a product's key would carry, is 0; every key
    lies in range(``size``).
    """

    zero = 0

    def __init__(self, group, what: str):
        self.group, self.what, self.rank = group, what, group.dimension
        self.bits = (2 * self.rank - 1).bit_length()
        self.mask = 2 ** self.bits - 1
        self.letters = 62 // self.bits
        self.size = 1 << (self.letters * self.bits + 1)
        #: starts[n] = 2^{nb}, the key of the first word of n letters
        self.starts = np.left_shift(1, np.arange(self.letters + 1) * self.bits)
        self.codes = {l: l + self.rank - (l > 0) for l in range(-self.rank, self.rank + 1) if l}

    def _fits(self, length: int) -> None:
        if length > self.letters:
            raise DescriptorMismatchError(
                f"{self.what} needs a word of {length} letters; int64 keys hold words "
                f"of at most {self.letters} letters on F_{self.rank}")

    def lengths(self, keys: np.ndarray) -> np.ndarray:
        """The number of letters of each key's word, by where its sentinel
        bit lies among the powers 2^{nb}: an exact integer count."""
        return np.searchsorted(self.starts, keys, side="right") - 1

    def keys(self, words) -> np.ndarray:
        """The keys of words; a word with a letter beyond +-1..+-k, one
        that is not reduced, or one longer than the limit raises
        ``DescriptorMismatchError``, by ``group.element`` where it names
        the fault.  A 1-d array holds keys already, the cells of a
        measure, and is returned as it is."""
        if isinstance(words, np.ndarray) and words.ndim == 1:
            return words
        top = 2 * self.rank - 1
        keys = []
        for word in words:
            key, last = 1, top + 1  # no code c has c + last = top
            for letter in word:
                code = self.codes.get(letter, -top)
                if code < 0 or code + last == top:
                    self.group.element(word)
                key, last = key << self.bits | code, code
            self._fits(len(word))
            keys.append(key)
        return np.array(keys, dtype=np.int64)

    def cells(self, keys: np.ndarray) -> list[tuple[int, ...]]:
        """The words of the keys, as tuples of ints."""
        lengths = self.lengths(keys)
        shifts = (lengths[:, None] - 1 - np.arange(lengths.max(initial=0))) * self.bits
        codes = (keys[:, None] >> np.maximum(shifts, 0)) & self.mask
        letters = codes - self.rank + (codes >= self.rank)
        return [tuple(row[:n]) for row, n in zip(letters.tolist(), lengths.tolist())]

    elements = cells

    def inverse(self, keys: np.ndarray) -> np.ndarray:
        """The keys of the inverse words: the codes in reverse order, each
        c replaced by 2k - 1 - c, pushed under a sentinel bit one by one."""
        lengths = self.lengths(keys)
        out = np.ones_like(keys)
        for j in range(int(lengths.max(initial=0))):
            code = keys >> (j * self.bits)
            code &= self.mask
            np.subtract(2 * self.rank - 1, code, out=code)
            code |= out << self.bits
            np.copyto(out, code, where=lengths > j)
        return out

    def add(self, xk: np.ndarray, yk: np.ndarray) -> np.ndarray:
        """The keys of the products x y, x-major.  Each pair is first keyed
        as the concatenation of its words.  Where x ends in the inverse of
        y's first letter, the letters that cancel are the common prefix of
        x^{-1} and y, that is the common suffix of x and y^{-1}, and at most
        the shorter word; those pairs are keyed again.  Only the side with
        fewer words is inverted: x^{-1} and y are compared with their first
        letters aligned, up to the highest bit in which they differ, or x
        and y^{-1} with their last letters aligned, up to the lowest."""
        b = self.bits
        lx, ly = self.lengths(xk), self.lengths(yk)
        low = yk - self.starts[ly]  # the letters of y, without its sentinel
        keys = np.left_shift.outer(xk, ly * b)
        keys += low
        keys = keys.reshape(-1)
        # x's last code against the code that cancels y's first; e reads as
        # a word with a last code (its sentinel) and a first code (0), but
        # the cut is at most the shorter word, so e cancels nothing
        first = low >> np.maximum(ly - 1, 0) * b
        hits = np.flatnonzero(np.equal.outer(xk & self.mask, 2 * self.rank - 1 - first))
        del first
        x, y = np.divmod(hits, len(yk))
        lx_hit, ly_hit = lx[x], ly[y]
        if len(xk) < len(yk):
            lead_x = (self.inverse(xk) - self.starts[lx]) << (self.letters - lx) * b
            lead_y = low << (self.letters - ly) * b
            differ = lead_x[x] ^ lead_y[y]
            common = self.letters - np.searchsorted(self.starts, differ, side="right")
        else:
            differ = xk[x] ^ self.inverse(yk)[y]
            lowest = np.where(differ, differ & -differ, self.starts[-1])
            common = np.searchsorted(self.starts, lowest, side="right") - 1
        cut = np.minimum(common, np.minimum(lx_hit, ly_hit))
        kept = ly_hit - cut
        keys[hits] = (xk[x] >> cut * b << kept * b) + (low[y] & self.starts[kept] - 1)
        if lx.max(initial=0) + ly.max(initial=0) > self.letters:
            length = np.add.outer(lx, ly)
            length[x, y] -= 2 * cut
            self._fits(int(length.max()))
        return keys
