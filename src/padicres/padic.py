"""p-adic scalars at fixed absolute precision.

A PadicApprox represents p^v * u with u a unit, known modulo p^K (absolute
precision exponent K); the unit is stored canonically reduced into
[1, p^(K-v)).  Values built from a known integer can be flagged exact, in
which case the true integer is kept alongside and residues are available at
any precision; forced zero limits and Teichmuller values at p=2 use this.

Precision bookkeeping is explicit: multiplication adds valuations and keeps
the weaker relative precision, addition works at the weaker absolute
precision and may expose cancellation (a result indistinguishable from 0 at
precision K is flagged as such, never silently treated as 0).

Teichmuller convention: omega_p(x) is the fixed point of y -> y^p mod p^K.
For p odd this is x^(p^(K-1)), the (p-1)-th root of unity = x mod p.
For p = 2 the iteration collapses every odd unit to 1, so omega_2 is 1 on
odd integers and 0 on even ones, the convention the twisted Whitehead
closed forms rely on.
"""

from __future__ import annotations

from .errors import PrecisionExhaustedError


def vp_split(x: int, p: int) -> tuple[int, int]:
    """(v_p(x), x / p^v_p(x)) of a nonzero integer, sign kept, in time
    about that of one division of x by p^v_p(x): at p = 2 from the lowest
    set bit; at odd p by dividing out p, p^2, p^4, ... while they divide,
    then the same powers again in descending order, as GMP's mpz_remove
    does."""
    if x == 0:
        raise ValueError("v_p(0) is infinite")
    if p == 2:
        v = (x & -x).bit_length() - 1
        return v, x >> v
    v = 0
    powers = []
    power = p
    while True:
        q, r = divmod(x, power)
        if r:
            break
        x, v = q, v + (1 << len(powers))
        powers.append(power)
        power *= power
    for i in reversed(range(len(powers))):
        q, r = divmod(x, powers[i])
        if not r:
            x, v = q, v + (1 << i)
    return v, x


def vp(x: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    return vp_split(x, p)[0]


def nonp_part(x: int, p: int) -> int:
    """x with every factor of p removed; sign preserved.  nonp_part(0) = 0."""
    return vp_split(x, p)[1] if x else 0


class PadicApprox:
    __slots__ = ("p", "prec", "val", "unit", "exact_value")

    def __init__(
        self,
        p: int,
        prec: int,
        val: int | None,
        unit: int | None,
        exact_value: int | None = None,
    ):
        if prec < 1:
            raise ValueError("precision must be >= 1")
        if val is not None:
            if not 0 <= val < prec and exact_value is None:
                raise ValueError("valuation must satisfy 0 <= v < K for approximate values")
            unit = unit % p ** max(prec - val, 1)
            if unit % p == 0 and exact_value is None:
                raise ValueError("unit part must be coprime to p")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "prec", prec)
        object.__setattr__(self, "val", val)
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "exact_value", exact_value)

    def __setattr__(self, name, value):
        raise AttributeError("PadicApprox is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_int(cls, x: int, p: int, prec: int, exact: bool = False) -> "PadicApprox":
        x = int(x)
        if not exact:
            x %= p**prec
        if x == 0:
            return cls(p, prec, None, None, 0 if exact else None)
        v = vp(x, p)
        u = x // p**v
        return cls(p, prec, v, u, x if exact else None)

    @classmethod
    def zero(cls, p: int, prec: int = 1) -> "PadicApprox":
        """Exact zero."""
        return cls(p, prec, None, None, 0)

    # -- predicates ----------------------------------------------------------

    @property
    def exact(self) -> bool:
        return self.exact_value is not None

    @property
    def is_zero_at_precision(self) -> bool:
        return self.residue(self.prec) == 0

    @property
    def is_exact_zero(self) -> bool:
        return self.exact_value == 0 and self.val is None

    def valuation(self) -> int | None:
        """v_p of the value; None means >= prec (indistinguishable from 0)."""
        if self.exact_value is not None:
            return None if self.exact_value == 0 else vp(self.exact_value, self.p)
        return self.val

    # -- representatives -----------------------------------------------------

    def residue(self, k: int | None = None) -> int:
        """Canonical representative mod p^k (k defaults to the stored precision)."""
        if k is None:
            k = self.prec
        if self.exact_value is not None:
            return self.exact_value % self.p**k
        if k > self.prec:
            raise PrecisionExhaustedError(
                f"value known mod {self.p}^{self.prec}, asked mod {self.p}^{k}"
            )
        if self.val is None:
            return 0
        return (self.p**self.val * self.unit) % self.p**k

    def eq_mod(self, other: "PadicApprox | int", k: int) -> bool:
        if isinstance(other, PadicApprox):
            other_res = other.residue(k)
        else:
            other_res = other % self.p**k
        return self.residue(k) == other_res

    # -- arithmetic ------------------------------------------------------------

    def _coerce(self, other) -> "PadicApprox":
        if isinstance(other, int):
            return PadicApprox.from_int(other, self.p, self.prec, exact=True)
        if self.p != other.p:
            raise ValueError("mixing different primes")
        return other

    def __mul__(self, other: "PadicApprox | int") -> "PadicApprox":
        other = self._coerce(other)
        p = self.p
        if self.exact_value is not None and other.exact_value is not None:
            return PadicApprox.from_int(
                self.exact_value * other.exact_value, p, max(self.prec, other.prec), exact=True
            )
        if self.is_exact_zero or other.is_exact_zero:
            return PadicApprox.zero(p, max(self.prec, other.prec))
        va = self.valuation()
        vb = other.valuation()
        if va is None or vb is None:
            # zero at precision K times p^v-value: still zero mod p^(K+v)
            prec = min(
                self.prec + (vb or 0) if va is None else 10**9,
                other.prec + (va or 0) if vb is None else 10**9,
            )
            return PadicApprox(p, prec, None, None)
        rels = []
        if self.exact_value is None:
            rels.append(self.prec - va)
        if other.exact_value is None:
            rels.append(other.prec - vb)
        rel = min(rels)
        val = va + vb
        ua = self.exact_value // p**va if self.exact_value is not None else self.unit
        ub = other.exact_value // p**vb if other.exact_value is not None else other.unit
        return PadicApprox(p, val + rel, val, ua * ub)

    __rmul__ = __mul__

    def inverse(self) -> "PadicApprox":
        v = self.valuation()
        if v is None:
            raise ZeroDivisionError("cannot invert (zero at this precision)")
        if v != 0:
            raise ValueError("only units are invertible in Z_p")
        u = pow(self.residue(self.prec), -1, self.p**self.prec)
        return PadicApprox(self.p, self.prec, 0, u)

    def __pow__(self, n: int) -> "PadicApprox":
        if n < 0:
            return self.inverse() ** (-n)
        if self.exact_value is not None:
            return PadicApprox.from_int(self.exact_value**n, self.p, self.prec, exact=True)
        if n == 0:
            return PadicApprox.from_int(1, self.p, self.prec, exact=True)
        if self.val is None:
            return PadicApprox(self.p, self.prec, None, None)
        rel = self.prec - self.val
        unit = pow(self.unit, n, self.p**rel)
        val = self.val * n
        return PadicApprox(self.p, val + rel, val, unit)

    def __add__(self, other: "PadicApprox | int") -> "PadicApprox":
        other = self._coerce(other)
        if self.exact_value is not None and other.exact_value is not None:
            return PadicApprox.from_int(
                self.exact_value + other.exact_value, self.p, max(self.prec, other.prec), exact=True
            )
        prec = min(
            self.prec if self.exact_value is None else 10**9,
            other.prec if other.exact_value is None else 10**9,
        )
        r = (self.residue(prec) + other.residue(prec)) % self.p**prec
        return PadicApprox.from_int(r, self.p, prec)

    __radd__ = __add__

    def __sub__(self, other: "PadicApprox | int") -> "PadicApprox":
        other = self._coerce(other)
        return self + (other * -1)

    def __neg__(self) -> "PadicApprox":
        return self * -1

    def __eq__(self, other) -> bool:
        if isinstance(other, PadicApprox):
            return (
                self.p == other.p
                and self.prec == other.prec
                and self.residue(self.prec) == other.residue(other.prec)
                and self.exact == other.exact
                and self.exact_value == other.exact_value
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.prec, self.residue(self.prec), self.exact_value))

    # -- presentation ------------------------------------------------------------

    def __str__(self) -> str:
        if self.exact_value == 0 and self.val is None:
            return "0 (exact)"
        if self.val is None:
            return f"0 mod {self.p}^{self.prec}"
        return f"{self.p}^{self.val} * {self.unit} mod {self.p}^{self.prec}"

    def __repr__(self) -> str:
        return f"PadicApprox({self})"


def teichmuller(x: int, p: int, prec: int) -> PadicApprox:
    """Teichmuller character of x, the fixed point of y -> y^p mod p^prec:
    x^(p^(prec-1)) for odd p not dividing x, as x = omega*u, u = 1 mod p,
    gives u^(p^(prec-1)) = 1 mod p^prec and p^(prec-1) = 1 mod p - 1.  Exact
    0 when p | x (the convention used throughout), and for p = 2 the exact
    value 1 on every odd integer."""
    if prec < 1:
        raise ValueError("precision must be >= 1")
    if x % p == 0:
        return PadicApprox.zero(p, prec)
    if p == 2:
        return PadicApprox.from_int(1, 2, prec, exact=True)
    return PadicApprox(p, prec, 0, pow(x, p ** (prec - 1), p**prec))
