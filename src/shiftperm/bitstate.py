"""States of the cyclic binary register F_2^n and the gamma product maps.

A state is an immutable BitVector: `n` is the dimension and bit i of
the packed int `bits` holds the coordinate x_i.  Indexing is 0-based
and cyclic, all coordinate arithmetic is mod n.  x.shift(j) is the
j-fold cyclic left shift: result_i = x_{(i+j) mod n}.

gamma(2k) is the shift-product map

    S^{2k} (.) (1 + S^{2k-1}) (.) (1 + S^{2k-3}) (.) ... (.) (1 + S),

where S is the shift, 1 the all-one vector and (.) the componentwise
product; gamma(0) is the identity.  eval_gamma computes these values
directly from the definition: exponents are reduced mod n and repeated
factors collapse by idempotence of the componentwise product, so the
same code covers every k on every dimension.  On odd dimensions the
product vanishes for 2k > n, on even dimensions it becomes periodic.
"""

from __future__ import annotations


class BitVector:
    """Immutable element of F_2^n, bit-packed into a Python int."""

    __slots__ = ("n", "bits")

    def __init__(self, n: int, bits: int = 0):
        if n < 1:
            raise ValueError("dimension must be at least 1")
        if not 0 <= bits < (1 << n):
            raise ValueError(f"bits 0x{bits:x} out of range for n={n}")
        self.n = n
        self.bits = bits

    @classmethod
    def from_bits(cls, coords) -> "BitVector":
        """Build from a sequence of coordinates, index i = x_i."""
        coords = list(coords)
        bits = 0
        for i, c in enumerate(coords):
            if c not in (0, 1):
                raise ValueError(f"coordinate {c!r} is not a bit")
            bits |= c << i
        return cls(len(coords), bits)

    @classmethod
    def zeros(cls, n: int) -> "BitVector":
        return cls(n, 0)

    @classmethod
    def ones(cls, n: int) -> "BitVector":
        return cls(n, (1 << n) - 1)

    def to_bits(self) -> tuple:
        return tuple((self.bits >> i) & 1 for i in range(self.n))

    def __getitem__(self, i: int) -> int:
        return (self.bits >> (i % self.n)) & 1

    @property
    def weight(self) -> int:
        return self.bits.bit_count()

    def shift(self, j: int) -> "BitVector":
        """Cyclic left shift by j places: result_i = x_{(i+j) mod n}."""
        return BitVector(self.n, _rot(self.bits, j % self.n, self.n))

    def complement(self) -> "BitVector":
        """The vector 1 + x."""
        return BitVector(self.n, self.bits ^ ((1 << self.n) - 1))

    def __mul__(self, other):
        """Componentwise product."""
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} != {other.n}")
        return BitVector(self.n, self.bits & other.bits)

    def __add__(self, other):
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} != {other.n}")
        return BitVector(self.n, self.bits ^ other.bits)

    def __eq__(self, other):
        return (
            isinstance(other, BitVector) and self.n == other.n and self.bits == other.bits
        )

    def __hash__(self):
        return hash((self.n, self.bits))

    def __str__(self):
        return "".join(str((self.bits >> i) & 1) for i in range(self.n))

    def __repr__(self):
        return f"BitVector.from_bits({list(self.to_bits())})"


def _rot(bits: int, j: int, n: int) -> int:
    if j == 0:
        return bits
    full = (1 << n) - 1
    return ((bits >> j) | (bits << (n - j))) & full


def eval_gamma(k: int, x: BitVector) -> BitVector:
    """Value of gamma(2k) at x, straight from the defining product."""
    if k < 0:
        raise ValueError("gamma index must be nonnegative")
    if k == 0:
        return x
    n, b = x.n, x.bits
    full = (1 << n) - 1
    acc = _rot(b, (2 * k) % n, n)
    for j in {jj % n for jj in range(1, 2 * k, 2)}:
        acc &= _rot(b, j, n) ^ full
        if not acc:
            break
    return BitVector(n, acc)
