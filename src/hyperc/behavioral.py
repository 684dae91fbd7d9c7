"""General and conic hypercontracts over a finite behavior universe.

Components are bitsets over an ordered universe of at most 64 behaviors;
composition of components is intersection and the component quotient is
implication.  Compsets come in two representations: explicit sets of
components (general mode, universes of at most 8 behaviors) and conic
form (the antichain of maximal components of a downward-closed compset);
the contract operations run on hypercontracts over either.
"""

from __future__ import annotations

from itertools import compress
from operator import length_hint
from typing import Iterable, Iterator, Sequence

from .errors import LimitExceeded, UniverseTooLarge, ValidationError, Value

MAX_UNIVERSE = 64
GENERAL_MODE_MAX = 8
MAX_ANTICHAIN_UNIVERSE = 4

# Bound on the candidates of one pairwise meet: a composition, a meet or a quotient step.
MAX_MEET_CANDIDATES = 1_000_000

# Bound on the work of one normalization: distinct masks × maximals kept.
MAX_NORMALIZE_WORK = 1_000_000_000

# Maximals kept before normalize_masks tests each mask against all of them at once.
_PACKED_FROM = 16

# Given families, normalize_masks may decide the masks left by closure once the maximals
# kept reach _CLOSURE_FROM × the family masks; a closure test costs about _CLOSURE_COST lane tests.
_CLOSURE_FROM = 2
_CLOSURE_COST = 5


class Universe(Value):
    """Ordered set of behavior labels; components are bitsets over it."""

    _fields = ("behaviors",)

    def __init__(self, behaviors: Iterable[str]):
        behaviors = tuple(behaviors)
        if not behaviors:
            raise ValidationError("universe must be nonempty")
        if len(behaviors) > MAX_UNIVERSE:
            raise UniverseTooLarge("universe", f"{len(behaviors)} behaviors", MAX_UNIVERSE, "MAX_UNIVERSE")
        if len(set(behaviors)) != len(behaviors):
            raise ValidationError("behavior labels must be distinct")
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
            raise ValidationError(f"unknown behavior {behavior!r}") from None

    def mask_of(self, behaviors: Iterable[str]) -> int:
        m = 0
        for b in behaviors:
            m |= 1 << self.index(b)
        return m

    def names_of(self, mask: int) -> tuple[str, ...]:
        return tuple(b for k, b in enumerate(self.behaviors) if mask >> k & 1)


def _check_universe(a, b) -> None:
    """The one operand rule, first in every binary operation, keeps its `_trusted` result sound."""
    if type(a) is not type(b):
        raise ValidationError(f"operands must share one compset representation: {type(a).__name__}, {type(b).__name__}")
    if a.universe != b.universe:
        raise ValidationError("universe mismatch")


class Component(Value):
    """A set of behaviors; composition is ∩ and the quotient is implication."""

    _fields = ("universe", "mask")

    def __init__(self, universe: Universe, mask: int):
        if mask & ~universe.full_mask:
            raise ValidationError("component leaves its universe")
        vars(self).update(universe=universe, mask=mask)

    @classmethod
    def from_behaviors(cls, universe: Universe, behaviors: Iterable[str]) -> "Component":
        return cls(universe, universe.mask_of(behaviors))

    def behaviors(self) -> tuple[str, ...]:
        return self.universe.names_of(self.mask)

    def __and__(self, other: "Component") -> "Component":
        _check_universe(self, other)
        return Component._trusted(self.universe, self.mask & other.mask)

    def __or__(self, other: "Component") -> "Component":
        _check_universe(self, other)
        return Component._trusted(self.universe, self.mask | other.mask)

    def complement(self) -> "Component":
        return Component._trusted(self.universe, self.universe.full_mask & ~self.mask)


def component_quotient(c: Component, c2: Component) -> Component:
    """Largest x with c2 ∩ x ⊆ c, namely the implication ¬c2 ∪ c."""
    _check_universe(c, c2)
    return Component._trusted(c.universe, _quotient_mask(c.mask, c2.mask, c.universe.full_mask))


# -- the mask-level conic kernel: normalize and the pairwise meet, under ConicCompset


def _quotient_mask(target: int, divisor: int, full: int) -> int:
    return (full & ~divisor) | target


def normalize_masks(
    masks: Iterable[int], operation: str = "conic normalization", families: Sequence[Sequence[int]] = ()
) -> tuple[int, ...]:
    """Antichain of maximal elements, sorted ascending; denotation unchanged.
    The masks must be nonnegative: a negative one turns the lane test off.
    Each mask is tested against at most all the maximals kept, so once distinct
    masks × maximals kept exceeds MAX_NORMALIZE_WORK, LimitExceeded names
    `operation` and both sizes; it is checked only when a maximal is kept.

    Distinct masks are visited by decreasing popcount, so any mask that
    dominates another comes first, and each mask is tested only against the
    maximals kept so far: one by one (as complements: m ⊆ o iff m ∧ ¬o = 0) up
    to _PACKED_FROM of them, then all at once.  With w the widest bit length,
    maximal o_i holds lane i of `lanes`: w bits (2^w − 1) ∧ ¬o_i under a clear
    guard bit.  m · low copies m < 2^w into every lane, lane i of lanes ∧ m · low
    is zero iff m ⊆ o_i, and adding `guard` then subtracting `low` clears just
    the guard bits of zero lanes, with no borrow across lanes.

    Given nonnegative `families` F_j with the masks among their meets ⋀_j q_j and
    ↓masks = ↓{those meets}, the masks left once the maximals kept reach
    switch = _CLOSURE_FROM × Σ|F_j| go to `_closed`, if they are as many and their
    closure work fits what MAX_NORMALIZE_WORK leaves.  Only the lane phase can
    switch: 2 × switch distinct meets are more than Σ|F_j| ≤ 8 masks make."""
    distinct = sorted(set(masks), key=int.bit_count, reverse=True)
    room = MAX_NORMALIZE_WORK // len(distinct) if distinct else 0
    todo = iter(distinct)
    kept: list[int] = []
    complements: list[int] = []
    for m in todo:
        for c in complements:
            if not m & c:
                break
        else:
            kept.append(m)
            complements.append(~m)
            if len(kept) > room:
                _over_work(operation, len(distinct), len(kept))
            if len(kept) == _PACKED_FROM and min(distinct) >= 0:
                break
    else:
        kept.sort()
        return tuple(kept)
    w = max(distinct).bit_length()
    family_masks = sum(map(len, families))
    switch = _CLOSURE_FROM * family_masks
    fill = (1 << w) - 1
    lanes = low = shift = 0
    for o in kept:
        lanes |= (fill ^ o) << shift
        low |= 1 << shift
        shift += w + 1
    guard = low << w
    for m in todo:
        if ((lanes & m * low | guard) - low) & guard == guard:
            kept.append(m)
            if len(kept) > room:
                _over_work(operation, len(distinct), len(kept))
            if len(kept) == switch:
                left = length_hint(todo)
                if switch <= left <= (MAX_NORMALIZE_WORK - len(distinct) * switch) // (_CLOSURE_COST * family_masks):
                    kept += _closed(list(todo), families, w)
                    break
            lanes |= (fill ^ m) << shift
            low |= 1 << shift
            guard |= 1 << shift + w
            shift += w + 1
    kept.sort()
    return tuple(kept)


def _closed(masks: list[int], families: Sequence[Sequence[int]], w: int) -> Iterator[int]:
    """The masks c maximal among all meets ⋀_j q_j (q_j ∈ F_j, all below 2^w, c
    among them): those with c = ⋀_j ⋁P_j(c), where P_j(c) = {q ∈ F_j : c ⊆ q}.
    Proof: every meet x_g = ⋀_j q_{j,g(j)} ⊇ c takes each q_{j,g(j)} from P_j(c),
    so c is maximal iff all those x_g, hence their join ⋁_g ⋀_j q_{j,g(j)} =
    ⋀_j ⋁P_j(c) (distributivity), equal c.  A quotient's fold keeps ↓acc = ↓{all
    meets of its steps so far}, so it passes the steps' families, not `acc`.

    Candidate i holds lane i of c: w bits, a clear guard bit, padded to nb bytes.
    For each f, `inside` marks the guard bits of lanes with c ⊆ f (the lane test
    above, on c ∧ ¬f); inside − (inside >> w) fills those lanes to take f, so u
    gathers ⋁P_j(c) and x meets the u of every family."""
    nb = w // 8 + 1
    full = (1 << w) - 1
    low = int.from_bytes(b"\1".ljust(nb, b"\0") * len(masks), "little")
    guard = low << w
    c = int.from_bytes(b"".join(m.to_bytes(nb, "little") for m in masks), "little")
    x = full * low
    for family in families:
        u = 0
        for f in family:
            f &= full
            inside = guard & ~((c & (full ^ f) * low | guard) - low)
            u |= (inside - (inside >> w)) & f * low
        x &= u
    same = guard & ~((x ^ c | guard) - low)
    return compress(masks, same.to_bytes(len(masks) * nb, "little")[w // 8 :: nb])


def _over_work(operation: str, masks: int, kept: int) -> None:
    measured = f"{masks} distinct masks × {kept} maximals kept = {masks * kept} domination tests"
    raise LimitExceeded(operation, measured, MAX_NORMALIZE_WORK, "MAX_NORMALIZE_WORK")


def _meet(
    operation: str, ms: Sequence[int], ms2: Sequence[int], families: Sequence[Sequence[int]] = ()
) -> tuple[int, ...]:
    """Maximals of  ↓ms ∩ ↓ms2 = ↓{a ∧ b : a ∈ ms, b ∈ ms2}, the meets of `families`
    ((ms, ms2) by default).  Over MAX_MEET_CANDIDATES candidates, LimitExceeded
    names the operation and both sizes before any is built."""
    candidates = len(ms) * len(ms2)
    if candidates > MAX_MEET_CANDIDATES:
        measured = f"{len(ms)} × {len(ms2)} = {candidates} candidates"
        raise LimitExceeded(operation, measured, MAX_MEET_CANDIDATES, "MAX_MEET_CANDIDATES")
    return normalize_masks([a & b for a in ms for b in ms2], operation, families or (ms, ms2))


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
            raise ValidationError("maximal component leaves its universe")
        if maximals != normalize_masks(maximals):
            raise ValidationError("maximals must form a sorted antichain")
        vars(self).update(universe=universe, maximals=maximals)

    @classmethod
    def from_components(cls, universe: Universe, components: Iterable[Component | int]) -> "ConicCompset":
        maximals = normalize_masks(c.mask if isinstance(c, Component) else c for c in components)
        # A mask outside the universe is dominated only by masks outside it,
        # so checking the maximals checks every component.
        full = universe.full_mask
        if any(m & ~full for m in maximals):
            raise ValidationError("maximal component leaves its universe")
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
        return all(any(m & ~m2 == 0 for m2 in other.maximals) for m in self.maximals)

    def compose(self, other: "ConicCompset") -> "ConicCompset":
        _check_universe(self, other)
        return ConicCompset._trusted(self.universe, _meet("conic composition", self.maximals, other.maximals))

    def meet(self, other: "ConicCompset") -> "ConicCompset":
        # ↓A ∩ ↓B, which equals composition since component composition is idempotent.
        _check_universe(self, other)
        return ConicCompset._trusted(self.universe, _meet("conic meet", self.maximals, other.maximals))

    def join(self, other: "ConicCompset") -> "ConicCompset":
        _check_universe(self, other)
        return ConicCompset._trusted(self.universe, normalize_masks(self.maximals + other.maximals, "conic join"))

    def quotient(self, other: "ConicCompset") -> "ConicCompset":
        """The residual  ⋀_{M'∈H'} ↓{M/M' : M ∈ H},  folded one divisor maximal M' at a time:
        each step meets the maximals kept so far with the k quotients M/M' (all steps' meets)."""
        _check_universe(self, other)
        full = self.universe.full_mask
        acc: tuple[int, ...] = (full,)
        steps: list[list[int]] = []
        for step, m2 in enumerate(other.maximals, 1):
            steps.append([_quotient_mask(m, m2, full) for m in self.maximals])
            acc = _meet(f"conic quotient step {step} of {other.k}", acc, steps[-1], steps)
        return ConicCompset._trusted(self.universe, acc)

    def to_general(self) -> "GeneralCompset":
        _check_general_mode(self.universe)  # before listing up to 2^64 submasks
        members = set()
        for m in self.maximals:
            members.update(_submasks(m))
        return GeneralCompset._trusted(self.universe, frozenset(members))


# -- general mode --------------------------------------------------------------


def _check_general_mode(universe: Universe) -> None:
    if universe.size > GENERAL_MODE_MAX:
        raise UniverseTooLarge("general mode", f"{universe.size} behaviors", GENERAL_MODE_MAX, "GENERAL_MODE_MAX")


class GeneralCompset(Value):
    """Explicit set of components; exact but exponential, so tiny universes only."""

    _fields = ("universe", "members")

    def __init__(self, universe: Universe, members: Iterable[int]):
        _check_general_mode(universe)
        members = frozenset(members)
        full = universe.full_mask
        if any(m & ~full for m in members):
            raise ValidationError("member component leaves its universe")
        vars(self).update(universe=universe, members=members)

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
        return GeneralCompset._trusted(self.universe, frozenset(m & m2 for m in self.members for m2 in other.members))

    def meet(self, other: "GeneralCompset") -> "GeneralCompset":
        _check_universe(self, other)
        return GeneralCompset._trusted(self.universe, self.members & other.members)

    def join(self, other: "GeneralCompset") -> "GeneralCompset":
        _check_universe(self, other)
        return GeneralCompset._trusted(self.universe, self.members | other.members)

    def quotient(self, other: "GeneralCompset") -> "GeneralCompset":
        """{ M | {M} × H' ⊆ H }, evaluated literally over the whole universe."""
        _check_universe(self, other)
        full = self.universe.full_mask
        out = frozenset(
            m
            for m in range(full + 1)
            if all(m & m2 in self.members for m2 in other.members)
        )
        return GeneralCompset._trusted(self.universe, out)

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
        vars(self).update(env=env, impl=impl)

    @property
    def universe(self) -> Universe:
        return self.env.universe

    def is_consistent(self) -> bool:
        return not self.impl.is_empty()

    def mirror(self) -> "BehavioralHypercontract":
        return BehavioralHypercontract._trusted(self.impl, self.env)

    def to_general(self) -> "BehavioralHypercontract":
        return BehavioralHypercontract._trusted(self.env.to_general(), self.impl.to_general())

    def to_conic(self) -> "BehavioralHypercontract":
        return BehavioralHypercontract._trusted(self.env.to_conic(), self.impl.to_conic())


def contract_refines(c: BehavioralHypercontract, c2: BehavioralHypercontract) -> bool:
    """c ≤ c2: environments of c2 inside c's, implementations of c inside c2's."""
    return c2.env.leq(c.env) and c.impl.leq(c2.impl)


def contract_compose(c: BehavioralHypercontract, c2: BehavioralHypercontract) -> BehavioralHypercontract:
    """(E/I' ∧ E'/I, I × I')."""
    env = c.env.quotient(c2.impl).meet(c2.env.quotient(c.impl))
    return BehavioralHypercontract._trusted(env, c.impl.compose(c2.impl))


def contract_quotient(c: BehavioralHypercontract, c2: BehavioralHypercontract) -> BehavioralHypercontract:
    """(E × I', I/I' ∧ E'/E)."""
    impl = c.impl.quotient(c2.impl).meet(c2.env.quotient(c.env))
    return BehavioralHypercontract._trusted(c.env.compose(c2.impl), impl)


def contract_meet(c: BehavioralHypercontract, c2: BehavioralHypercontract) -> BehavioralHypercontract:
    """(E ∪ E', I ∩ I'): the GLB (weak merge)."""
    return BehavioralHypercontract._trusted(c.env.join(c2.env), c.impl.meet(c2.impl))


def contract_join(c: BehavioralHypercontract, c2: BehavioralHypercontract) -> BehavioralHypercontract:
    """(E ∩ E', I ∪ I'): the LUB."""
    return BehavioralHypercontract._trusted(c.env.meet(c2.env), c.impl.join(c2.impl))


def strong_merge_general(c: BehavioralHypercontract, c2: BehavioralHypercontract) -> BehavioralHypercontract:
    """Strong merge: environments shared by both viewpoints, closed systems
    conjoined, implementations re-derived by quotient.  It runs on either
    representation; only AG contracts have a closed form (`ag_merge_strong`)."""
    env = c.env.meet(c2.env)
    closed = c.env.compose(c.impl).meet(c2.env.compose(c2.impl))
    return BehavioralHypercontract._trusted(env, closed.quotient(env))


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
    return BehavioralHypercontract._trusted(env, impl)


def ag_compose(ag: AgContract, ag2: AgContract) -> AgContract:
    """AG composition matching contract composition under the bridge:
    G = (G1/A1) ∩ (G2/A2) and A = (A1 ∩ A2) ∪ ¬G."""
    g = component_quotient(ag.guarantees, ag.assumptions) & component_quotient(
        ag2.guarantees, ag2.assumptions
    )
    a = (ag.assumptions & ag2.assumptions) | g.complement()
    return AgContract._trusted(a, g)


def ag_merge_strong(ag: AgContract, ag2: AgContract) -> AgContract:
    """Viewpoint fusion with strong assumptions: (A1 ∩ A2, G1 ∩ G2)."""
    return AgContract._trusted(ag.assumptions & ag2.assumptions, ag.guarantees & ag2.guarantees)


def ag_merge_weak(ag: AgContract, ag2: AgContract) -> BehavioralHypercontract:
    """Viewpoint fusion as the GLB of the bridged hypercontracts."""
    return contract_meet(ag_to_contract(ag), ag_to_contract(ag2))


# -- enumeration helpers (oracle and exhaustive tests) ------------------------------


def all_antichains(universe: Universe) -> list[tuple[int, ...]]:
    """All antichains of components (= all conic compsets) over a tiny universe."""
    if universe.size > MAX_ANTICHAIN_UNIVERSE:
        measured = f"{universe.size} behaviors"
        raise UniverseTooLarge("antichain enumeration", measured, MAX_ANTICHAIN_UNIVERSE, "MAX_ANTICHAIN_UNIVERSE")
    masks = list(range(universe.full_mask + 1))
    out: list[tuple[int, ...]] = []

    def extend(start: int, chosen: tuple[int, ...]) -> None:
        out.append(chosen)
        for m in masks[start:]:
            if all(m & ~c and c & ~m for c in chosen):
                extend(m + 1, chosen + (m,))

    extend(0, ())
    return [tuple(sorted(c)) for c in out]
