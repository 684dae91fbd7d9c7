"""General and conic hypercontracts over a finite behavior universe.

Components are bitsets over an ordered universe of at most 64 behaviors;
composition of components is intersection and the component quotient is
implication.  Compsets come in two representations: explicit sets of
components (general mode, universes of at most 8 behaviors) and conic
form (the antichain of maximal components of a downward-closed compset);
the contract operations run on hypercontracts over either.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import LimitExceeded, UniverseTooLarge, Value

MAX_UNIVERSE = 64
GENERAL_MODE_MAX = 8

# Bound on the candidates one step of the folded conic quotient may build.
_QUOTIENT_STEP_CAP = 1_000_000


class Universe(Value):
    """Ordered set of behavior labels; components are bitsets over it."""

    _fields = ("behaviors",)

    def __init__(self, behaviors: Iterable[str]):
        behaviors = tuple(behaviors)
        if not behaviors:
            raise UniverseTooLarge("universe must be nonempty")
        if len(behaviors) > MAX_UNIVERSE:
            raise UniverseTooLarge(f"universe of {len(behaviors)} behaviors exceeds the {MAX_UNIVERSE} bound")
        if len(set(behaviors)) != len(behaviors):
            raise UniverseTooLarge("behavior labels must be distinct")
        vars(self).update(behaviors=behaviors, _pos={b: k for k, b in enumerate(behaviors)})

    @property
    def size(self) -> int:
        return len(self.behaviors)

    @property
    def full_mask(self) -> int:
        return (1 << self.size) - 1

    def index(self, behavior: str) -> int:
        try:
            return self._pos[behavior]
        except KeyError:
            raise ValueError(f"unknown behavior {behavior!r}") from None

    def mask_of(self, behaviors: Iterable[str]) -> int:
        m = 0
        for b in behaviors:
            m |= 1 << self.index(b)
        return m

    def names_of(self, mask: int) -> tuple[str, ...]:
        return tuple(b for k, b in enumerate(self.behaviors) if mask >> k & 1)


def _check_universe(a, b) -> None:
    if a.universe != b.universe:
        raise ValueError("universe mismatch")


class Component(Value):
    """A set of behaviors; composition is ∩ and the quotient is implication."""

    _fields = ("universe", "mask")

    def __init__(self, universe: Universe, mask: int):
        if mask & ~universe.full_mask:
            raise ValueError("component leaves its universe")
        vars(self).update(universe=universe, mask=mask)

    @classmethod
    def from_behaviors(cls, universe: Universe, behaviors: Iterable[str]) -> "Component":
        return cls(universe, universe.mask_of(behaviors))

    def behaviors(self) -> tuple[str, ...]:
        return self.universe.names_of(self.mask)

    def __and__(self, other: "Component") -> "Component":
        _check_universe(self, other)
        return Component(self.universe, self.mask & other.mask)

    def __or__(self, other: "Component") -> "Component":
        _check_universe(self, other)
        return Component(self.universe, self.mask | other.mask)

    def complement(self) -> "Component":
        return Component(self.universe, self.universe.full_mask & ~self.mask)


def component_quotient(c: Component, c2: Component) -> Component:
    """Largest x with c2 ∩ x ⊆ c, namely the implication ¬c2 ∪ c."""
    _check_universe(c, c2)
    return Component(c.universe, _quotient_mask(c.mask, c2.mask, c.universe.full_mask))


# -- mask-level conic core (single source of truth for ConicCompset) ---------


def _quotient_mask(target: int, divisor: int, full: int) -> int:
    return (full & ~divisor) | target


def normalize_masks(masks: Iterable[int]) -> tuple[int, ...]:
    """Antichain of maximal elements, sorted ascending; denotation unchanged.

    Distinct masks are visited by decreasing popcount, so any mask that
    dominates another comes first, and each mask is tested only against the
    maximals kept so far (held as complements: m ⊆ o iff m ∧ ¬o = 0)."""
    kept: list[int] = []
    complements: list[int] = []
    for m in sorted(set(masks), key=int.bit_count, reverse=True):
        for c in complements:
            if not m & c:
                break
        else:
            kept.append(m)
            complements.append(~m)
    kept.sort()
    return tuple(kept)


def leq_masks(ms: tuple[int, ...], ms2: tuple[int, ...]) -> bool:
    return all(any(m & ~m2 == 0 for m2 in ms2) for m in ms)


def compose_masks(ms: tuple[int, ...], ms2: tuple[int, ...]) -> tuple[int, ...]:
    return normalize_masks(m & m2 for m in ms for m2 in ms2)


def join_masks(ms: tuple[int, ...], ms2: tuple[int, ...]) -> tuple[int, ...]:
    return normalize_masks(ms + ms2)


def quotient_masks(ms: tuple[int, ...], ms2: tuple[int, ...], full: int) -> tuple[int, ...]:
    """Maximals of the residual  ⋀_{M'∈ms2} ↓{M/M' : M ∈ ms},  folded one
    divisor maximal at a time with  ↓A ∩ ↓B = ↓{a ∧ b : a ∈ A, b ∈ B}  and
    normalized after every step.  A step builds len(acc)·len(ms) candidates,
    at most _QUOTIENT_STEP_CAP."""
    acc: tuple[int, ...] = (full,)
    for step, m2 in enumerate(ms2, 1):
        candidates = len(acc) * len(ms)
        if candidates > _QUOTIENT_STEP_CAP:
            raise LimitExceeded(
                f"conic quotient step {step} of {len(ms2)} would build {len(acc)} partial maximals × "
                f"{len(ms)} dividend maximals = {candidates} candidates, over the cap of {_QUOTIENT_STEP_CAP}"
            )
        quotients = [_quotient_mask(m, m2, full) for m in ms]
        acc = normalize_masks([a & q for a in acc for q in quotients])
    return acc


def _submasks(mask: int) -> Iterator[int]:
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


class ConicCompset(Value):
    """Downward-closed compset represented by its antichain of maximals.  This
    module builds its results with `_trusted`, from a sorted antichain (a tuple)
    of masks inside the universe."""

    _fields = ("universe", "maximals")

    def __init__(self, universe: Universe, maximals: Iterable[int]):
        maximals = tuple(maximals)
        full = universe.full_mask
        if any(m & ~full for m in maximals):
            raise ValueError("maximal component leaves its universe")
        if maximals != normalize_masks(maximals):
            raise ValueError("maximals must form a sorted antichain")
        vars(self).update(universe=universe, maximals=maximals)

    @classmethod
    def from_components(cls, universe: Universe, components: Iterable[Component | int]) -> "ConicCompset":
        maximals = normalize_masks(c.mask if isinstance(c, Component) else c for c in components)
        # A mask outside the universe is dominated only by masks outside it,
        # so checking the maximals checks every component.
        full = universe.full_mask
        if any(m & ~full for m in maximals):
            raise ValueError("maximal component leaves its universe")
        return cls._trusted(universe, maximals)

    @classmethod
    def empty(cls, universe: Universe) -> "ConicCompset":
        return cls._trusted(universe, ())

    @classmethod
    def full(cls, universe: Universe) -> "ConicCompset":
        return cls._trusted(universe, (universe.full_mask,))

    @property
    def k(self) -> int:
        return len(self.maximals)

    def is_empty(self) -> bool:
        return not self.maximals

    def contains(self, c: Component | int) -> bool:
        m = c.mask if isinstance(c, Component) else c
        return any(m & ~mx == 0 for mx in self.maximals)

    def leq(self, other: "ConicCompset") -> bool:
        _check_universe(self, other)
        return leq_masks(self.maximals, other.maximals)

    def compose(self, other: "ConicCompset") -> "ConicCompset":
        _check_universe(self, other)
        return ConicCompset._trusted(self.universe, compose_masks(self.maximals, other.maximals))

    def meet(self, other: "ConicCompset") -> "ConicCompset":
        # Intersection of downward-closed sets; coincides with composition
        # because component composition is idempotent.
        return self.compose(other)

    def join(self, other: "ConicCompset") -> "ConicCompset":
        _check_universe(self, other)
        return ConicCompset._trusted(self.universe, join_masks(self.maximals, other.maximals))

    def quotient(self, other: "ConicCompset") -> "ConicCompset":
        _check_universe(self, other)
        return ConicCompset._trusted(
            self.universe,
            quotient_masks(self.maximals, other.maximals, self.universe.full_mask),
        )

    def to_general(self) -> "GeneralCompset":
        _check_general_mode(self.universe)  # before listing up to 2^64 submasks
        members = set()
        for m in self.maximals:
            members.update(_submasks(m))
        return GeneralCompset(self.universe, frozenset(members))


# -- general mode --------------------------------------------------------------


def _check_general_mode(universe: Universe) -> None:
    if universe.size > GENERAL_MODE_MAX:
        raise UniverseTooLarge(f"universe too large for general mode (> {GENERAL_MODE_MAX} behaviors)")


class GeneralCompset(Value):
    """Explicit set of components; exact but exponential, so tiny universes only."""

    _fields = ("universe", "members")

    def __init__(self, universe: Universe, members: Iterable[int]):
        _check_general_mode(universe)
        members = frozenset(members)
        full = universe.full_mask
        if any(m & ~full for m in members):
            raise ValueError("member component leaves its universe")
        vars(self).update(universe=universe, members=members)

    @classmethod
    def from_components(cls, universe: Universe, components: Iterable[Component | int]) -> "GeneralCompset":
        return cls(universe, frozenset(c.mask if isinstance(c, Component) else c for c in components))

    def is_empty(self) -> bool:
        return not self.members

    def contains(self, c: Component | int) -> bool:
        m = c.mask if isinstance(c, Component) else c
        return m in self.members

    def leq(self, other: "GeneralCompset") -> bool:
        _check_universe(self, other)
        return self.members <= other.members

    def compose(self, other: "GeneralCompset") -> "GeneralCompset":
        _check_universe(self, other)
        return GeneralCompset(
            self.universe, frozenset(m & m2 for m in self.members for m2 in other.members)
        )

    def meet(self, other: "GeneralCompset") -> "GeneralCompset":
        _check_universe(self, other)
        return GeneralCompset(self.universe, self.members & other.members)

    def join(self, other: "GeneralCompset") -> "GeneralCompset":
        _check_universe(self, other)
        return GeneralCompset(self.universe, self.members | other.members)

    def quotient(self, other: "GeneralCompset") -> "GeneralCompset":
        """{ M | {M} × H' ⊆ H }, evaluated literally over the whole universe."""
        _check_universe(self, other)
        full = self.universe.full_mask
        out = frozenset(
            m
            for m in range(full + 1)
            if all(m & m2 in self.members for m2 in other.members)
        )
        return GeneralCompset(self.universe, out)

    def to_conic(self) -> ConicCompset:
        """The antichain of maximal members: the counterpart of `ConicCompset.to_general`."""
        return ConicCompset._trusted(self.universe, normalize_masks(self.members))


class ConvexityReport(Value):
    _fields = ("convex", "coconvex")

    def __init__(self, convex: bool, coconvex: bool):
        vars(self).update(convex=convex, coconvex=coconvex)

    @property
    def flat(self) -> bool:
        return self.convex and self.coconvex


def convexity(h: ConicCompset | GeneralCompset) -> ConvexityReport:
    """Literal checks: H convex iff H×H ≤ H, co-convex iff H ≤ H×H, on either
    representation (a conic compset is downward closed, so always flat)."""
    squared = h.compose(h)
    return ConvexityReport(convex=squared.leq(h), coconvex=h.leq(squared))


def is_saturated(env: ConicCompset | GeneralCompset, closed: ConicCompset | GeneralCompset) -> bool:
    """Fixpoint condition E = S / (S / E), on either representation: the
    environments are as large as possible without shrinking the implementations."""
    _check_universe(env, closed)
    return closed.quotient(closed.quotient(env)) == env


# -- hypercontracts --------------------------------------------------------------


class BehavioralHypercontract(Value):
    """Pair (environments, implementations) of compsets, both conic or both
    general: the contract_* operations below run on either representation."""

    _fields = ("env", "impl")

    def __init__(self, env: ConicCompset | GeneralCompset, impl: ConicCompset | GeneralCompset):
        _check_universe(env, impl)
        if type(env) is not type(impl):
            raise ValueError("environments and implementations must share one compset representation")
        vars(self).update(env=env, impl=impl)

    @property
    def universe(self) -> Universe:
        return self.env.universe

    def is_consistent(self) -> bool:
        return not self.impl.is_empty()

    def mirror(self) -> "BehavioralHypercontract":
        return BehavioralHypercontract(self.impl, self.env)


def contract_refines(c: BehavioralHypercontract, c2: BehavioralHypercontract) -> bool:
    """c ≤ c2: environments of c2 inside c's, implementations of c inside c2's."""
    return c2.env.leq(c.env) and c.impl.leq(c2.impl)


def contract_compose(c: BehavioralHypercontract, c2: BehavioralHypercontract) -> BehavioralHypercontract:
    """(E/I' ∧ E'/I, I × I')."""
    env = c.env.quotient(c2.impl).meet(c2.env.quotient(c.impl))
    return BehavioralHypercontract(env, c.impl.compose(c2.impl))


def contract_quotient(c: BehavioralHypercontract, c2: BehavioralHypercontract) -> BehavioralHypercontract:
    """(E × I', I/I' ∧ E'/E)."""
    impl = c.impl.quotient(c2.impl).meet(c2.env.quotient(c.env))
    return BehavioralHypercontract(c.env.compose(c2.impl), impl)


def contract_meet(c: BehavioralHypercontract, c2: BehavioralHypercontract) -> BehavioralHypercontract:
    """(E ∪ E', I ∩ I'): the GLB (weak merge)."""
    return BehavioralHypercontract(c.env.join(c2.env), c.impl.meet(c2.impl))


def contract_join(c: BehavioralHypercontract, c2: BehavioralHypercontract) -> BehavioralHypercontract:
    """(E ∩ E', I ∪ I'): the LUB."""
    return BehavioralHypercontract(c.env.meet(c2.env), c.impl.join(c2.impl))


def strong_merge_general(c: BehavioralHypercontract, c2: BehavioralHypercontract) -> BehavioralHypercontract:
    """Strong merge: environments shared by both viewpoints, closed systems
    conjoined, implementations re-derived by quotient.  It runs on either
    representation; only AG contracts have a closed form (`ag_merge_strong`)."""
    env = c.env.meet(c2.env)
    closed = c.env.compose(c.impl).meet(c2.env.compose(c2.impl))
    return BehavioralHypercontract(env, closed.quotient(env))


# -- the assume-guarantee bridge ---------------------------------------------------


class AgContract(Value):
    """Assume-guarantee contract: a pair of trace properties (A, G)."""

    _fields = ("assumptions", "guarantees")

    def __init__(self, assumptions: Component, guarantees: Component):
        _check_universe(assumptions, guarantees)
        vars(self).update(assumptions=assumptions, guarantees=guarantees)

    @property
    def universe(self) -> Universe:
        return self.assumptions.universe


def ag_to_contract(ag: AgContract) -> BehavioralHypercontract:
    """Environments ⟨A⟩ and implementations ⟨G/A⟩, both 1-conic."""
    u = ag.universe
    env = ConicCompset._trusted(u, (ag.assumptions.mask,))
    impl = ConicCompset._trusted(u, (component_quotient(ag.guarantees, ag.assumptions).mask,))
    return BehavioralHypercontract(env, impl)


def ag_compose(ag: AgContract, ag2: AgContract) -> AgContract:
    """AG composition matching contract composition under the bridge:
    G = (G1/A1) ∩ (G2/A2) and A = (A1 ∩ A2) ∪ ¬G."""
    _check_universe(ag.assumptions, ag2.assumptions)
    g = component_quotient(ag.guarantees, ag.assumptions) & component_quotient(
        ag2.guarantees, ag2.assumptions
    )
    a = (ag.assumptions & ag2.assumptions) | g.complement()
    return AgContract(a, g)


def ag_merge_strong(ag: AgContract, ag2: AgContract) -> AgContract:
    """Viewpoint fusion with strong assumptions: (A1 ∩ A2, G1 ∩ G2)."""
    _check_universe(ag.assumptions, ag2.assumptions)
    return AgContract(ag.assumptions & ag2.assumptions, ag.guarantees & ag2.guarantees)


def ag_merge_weak(ag: AgContract, ag2: AgContract) -> BehavioralHypercontract:
    """Viewpoint fusion as the GLB of the bridged hypercontracts."""
    return contract_meet(ag_to_contract(ag), ag_to_contract(ag2))


# -- enumeration helpers (oracle and exhaustive tests) ------------------------------


def all_antichains(universe: Universe) -> list[tuple[int, ...]]:
    """All antichains of components (= all conic compsets) over a tiny universe."""
    if universe.size > 4:
        raise UniverseTooLarge("antichain enumeration is meant for |B| ≤ 4")
    masks = list(range(universe.full_mask + 1))
    out: list[tuple[int, ...]] = []

    def extend(start: int, chosen: tuple[int, ...]) -> None:
        out.append(chosen)
        for m in masks[start:]:
            if all(m & ~c and c & ~m for c in chosen):
                extend(m + 1, chosen + (m,))

    extend(0, ())
    return [tuple(sorted(c)) for c in out]
