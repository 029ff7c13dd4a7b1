"""Walk through the gamma maps on small cyclic registers.

Shows cyclic shifts, the componentwise product, evaluation of the
gamma(2k) products, and how their behavior depends on the parity of
the dimension: vanishing on odd n, periodic repetition on even n.
"""

from shiftperm import BitVector, eval_gamma

x = BitVector.from_bits([0, 0, 1, 0, 0, 0])
print("x          =", x)
print("x.shift(1) =", x.shift(1))
print("x.shift(2) =", x.shift(2))
print("x.shift(6) =", x.shift(6), "(a full turn is the identity)")
print()

# gamma(0) is the identity; gamma(2) applied to a single set bit
print("gamma(0) at x:", eval_gamma(0, x))
print("gamma(2) at x:", eval_gamma(1, x), "= S^2 x (.) (1 + S x)")
print()

# on odd dimensions the products vanish once 2k exceeds n
n = 7
print(f"odd n = {n}: images of gamma(2k) at a sample state")
sample = BitVector.from_bits([1, 0, 1, 1, 0, 0, 1])
for k in range(6):
    print(f"  gamma({2 * k:2d}) -> {eval_gamma(k, sample)}")
print("  (everything with 2k > 7 is the zero map)")
print()

# on even dimensions they start repeating instead
n = 6
sample = BitVector.from_bits([1, 0, 0, 0, 1, 0])
print(f"even n = {n}: gamma(12) equals gamma(6), gamma(14) equals gamma(8)")
for k in (3, 6, 4, 7):
    print(f"  gamma({2 * k:2d}) -> {eval_gamma(k, sample)}")
print()

# shift-invariance: evaluating after a shift equals shifting the value
y = eval_gamma(2, sample)
print("gamma(4) at shift(x,1):", eval_gamma(2, sample.shift(1)))
print("shift(gamma(4) at x,1):", y.shift(1))
