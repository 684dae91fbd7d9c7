"""conic: behavioral hypercontracts only.

Conic compsets over universes of 16, 32 and 64 behaviors with k = 2-5
maximals (at most 4**5 = 1024 choice functions per quotient).  The work is
in ``normalize_masks`` and ``quotient_masks``; no language code runs.
"""

from __future__ import annotations

from hyperc import behavioral, jsonio
from hyperc.behavioral import (
    AgContract,
    BehavioralHypercontract,
    Component,
    ConicCompset,
    Universe,
)


SIZES = (16, 32, 64)
SAMPLES = 24
THIRD_OPERANDS = 4

# (op, ops per pass, k of the first operand, k of the second, universe sizes
# to cycle through).  Every seed gets exactly these counts, so only the masks
# differ between seeds.  Latency bands: lattice and AG ops (tens of µs, 25 %),
# normalization of 80-100 raw components (about 0.5 ms, 40 %: the median),
# small quotients and contract ops (0.02-5 ms, 20 %), and quotients with
# k**k' of 256-1024 (10-150 ms, 15 %: p90).  The large quotients use 64
# behaviors, where nearly every candidate is distinct, so their cost varies
# least from seed to seed; 5**5 is left out because one such quotient (about
# a second) would dominate a pass.
MIX = (
    ("compose", 72, 3, 4, SIZES),
    ("meet", 48, 4, 3, SIZES),
    ("join", 48, 3, 5, SIZES),
    ("leq", 48, 5, 3, SIZES),
    ("ag_contract", 36, None, None, SIZES),
    ("ag_compose", 36, None, None, SIZES),
    ("ag_merge_weak", 36, None, None, SIZES),
    ("ag_merge_strong", 36, None, None, SIZES),
    ("contract_meet", 36, 2, 3, SIZES),
    ("contract_join", 36, 3, 2, SIZES),
    ("normalize", 432, 3, None, SIZES),
    ("normalize", 288, 5, None, SIZES),
    ("quotient", 36, 2, 2, SIZES),
    ("quotient", 36, 2, 3, SIZES),
    ("quotient", 36, 3, 2, SIZES),
    ("quotient", 36, 3, 3, SIZES),
    ("quotient", 36, 2, 4, SIZES),
    ("quotient", 36, 4, 2, SIZES),
    ("contract_compose", 36, 2, 2, SIZES),
    ("contract_compose", 36, 3, 3, SIZES),
    ("contract_quotient", 36, 2, 2, SIZES),
    ("contract_quotient", 36, 3, 3, SIZES),
    ("quotient", 180, 4, 4, (64,)),
    ("quotient", 48, 5, 4, (64,)),
    ("quotient", 24, 4, 5, (64,)),
)


def _compset(rng, universe: Universe, k: int) -> ConicCompset:
    masks = set()
    while len(masks) < k:
        masks.add(rng.getrandbits(universe.size))
    return ConicCompset.from_components(universe, masks)


def _raw_components(rng, universe: Universe, k: int) -> tuple[int, ...]:
    """k maximal masks hidden among 80-100 dominated submasks and repeats."""
    tops = [rng.getrandbits(universe.size) for _ in range(k)]
    raw = list(tops)
    for _ in range(rng.randint(80, 100)):
        top = rng.choice(tops)
        raw.append(top & rng.getrandbits(universe.size) if rng.random() < 0.8 else top)
    rng.shuffle(raw)
    return tuple(raw)


def _contract(rng, universe: Universe, k: int) -> BehavioralHypercontract:
    return BehavioralHypercontract(_compset(rng, universe, k), _compset(rng, universe, k))


def _ag(rng, universe: Universe) -> AgContract:
    return AgContract(
        Component(universe, rng.getrandbits(universe.size)), Component(universe, rng.getrandbits(universe.size))
    )


def _candidates(ms: tuple, ms2: tuple) -> int:
    return len(ms) ** len(ms2) if ms and ms2 else 0


def _quotient_member(m: int, h: ConicCompset, h2: ConicCompset) -> bool:
    """m ∈ h / h2 iff m ∧ b ∈ ↓h for every maximal b of h2."""
    return all(h.contains(m & b) for b in h2.maximals)


class Conic:
    name = "conic"
    warmup_ops = 16
    spot_checks = 32
    rss_of_children = False

    def __init__(self, root: str):
        self._universes = {n: Universe(tuple(f"b{i}" for i in range(n))) for n in SIZES}

    def close(self) -> None:
        pass

    def generate(self, rng, limit: int | None = None) -> list[tuple]:
        # Compsets, contracts and components carry no caches, so the specs
        # hold them directly.
        pool = []
        for op, count, k1, k2, sizes in MIX:
            if limit is not None and len(pool) >= limit:
                break
            for j in range(count):
                u = self._universes[sizes[j % len(sizes)]]
                if op == "normalize":
                    pool.append((op, u, _raw_components(rng, u, k1)))
                elif op.startswith("ag_"):
                    pool.append((op, _ag(rng, u), _ag(rng, u)))
                elif op.startswith("contract_"):
                    pool.append((op, _contract(rng, u, k1), _contract(rng, u, k2)))
                else:
                    pool.append((op, _compset(rng, u, k1), _compset(rng, u, k2)))
        rng.shuffle(pool)
        return pool[:limit]

    def prepare(self, spec: tuple) -> tuple:
        return spec[1:]

    def execute(self, spec: tuple, args: tuple, call):
        op = spec[0]
        a, b = args
        if op == "normalize":
            return call("behavioral.normalize", ConicCompset.from_components, a, b)
        if op == "compose":
            return call("behavioral.compose", a.compose, b)
        if op == "meet":
            return call("behavioral.compose", a.meet, b)
        if op == "join":
            return call("behavioral.join", a.join, b)
        if op == "leq":
            return call("behavioral.leq", a.leq, b)
        if op == "quotient":
            return call("behavioral.quotient", a.quotient, b)
        if op.startswith("contract_"):
            return call("behavioral.contract", getattr(behavioral, op), a, b)
        if op == "ag_contract":
            return call("behavioral.ag", behavioral.ag_to_contract, a)
        return call("behavioral.ag", getattr(behavioral, op), a, b)

    def outcome_ok(self, spec: tuple, result) -> bool:
        return result is not None

    def encode(self, spec: tuple, result) -> bytes:
        if isinstance(result, bool):
            return b"true" if result else b"false"
        if isinstance(result, ConicCompset):
            doc = {"universe": list(result.universe.behaviors), "maximals": jsonio.compset_doc(result)}
        elif isinstance(result, AgContract):
            doc = jsonio.ag_contract_doc(result)
        else:
            doc = jsonio.behavioral_contract_doc(result)
        return jsonio.dumps(doc).encode()

    # -- correctness gate ------------------------------------------------------------

    def spot_check(self, spec: tuple, result, rng, call) -> list[str]:
        op, a, b = spec
        if op == "normalize":
            raw = set(b)
            ok = (
                all(m in raw for m in result.maximals)
                and all(result.contains(m) for m in raw)
                and all(m == o or m & ~o for m in result.maximals for o in result.maximals)
            )
            return [] if ok else ["maximals are not the maximal elements of the components"]
        if op == "leq":
            expected = all(b.contains(m) for m in a.maximals)
            return [] if expected == result else [f"leq gave {result}, definition gives {expected}"]
        if op.startswith("ag_"):
            return self._check_ag(op, a, b, result)
        if op.startswith("contract_"):
            e, i, e2, i2 = a.env, a.impl, b.env, b.impl
            env_def, impl_def = {
                "contract_compose": (
                    lambda m: _quotient_member(m, e, i2) and _quotient_member(m, e2, i),
                    lambda m: i.contains(m) and i2.contains(m),
                ),
                "contract_quotient": (
                    lambda m: e.contains(m) and i2.contains(m),
                    lambda m: _quotient_member(m, i, i2) and _quotient_member(m, e2, e),
                ),
                "contract_meet": (
                    lambda m: e.contains(m) or e2.contains(m),
                    lambda m: i.contains(m) and i2.contains(m),
                ),
                "contract_join": (
                    lambda m: e.contains(m) and e2.contains(m),
                    lambda m: i.contains(m) or i2.contains(m),
                ),
            }[op]
            tops = e.maximals + i.maximals + e2.maximals + i2.maximals + result.env.maximals
            return self._check_members(rng, result.env, env_def, tops, "env") + self._check_members(
                rng, result.impl, impl_def, tops + result.impl.maximals, "impl"
            )
        definition = {
            "compose": lambda m: a.contains(m) and b.contains(m),
            "meet": lambda m: a.contains(m) and b.contains(m),
            "join": lambda m: a.contains(m) or b.contains(m),
            "quotient": lambda m: _quotient_member(m, a, b),
        }[op]
        found = self._check_members(rng, result, definition, a.maximals + b.maximals + result.maximals, op)
        if op == "quotient":
            # Adjunction on sampled third operands: x × b ≤ a iff x ≤ a / b.
            for _ in range(THIRD_OPERANDS):
                x = _compset(rng, a.universe, rng.randint(1, 3))
                if x.compose(b).leq(a) != x.leq(result):
                    found.append(f"adjunction fails for third operand {x.maximals}")
        return found

    def _check_members(self, rng, compset, definition, tops, what) -> list[str]:
        """Membership of sampled components, mostly near the maximals."""
        full = compset.universe.full_mask
        for _ in range(SAMPLES):
            m = rng.getrandbits(compset.universe.size)
            if tops and rng.random() < 0.8:
                m = rng.choice(tops) & (m | rng.getrandbits(compset.universe.size))
            m &= full
            if compset.contains(m) != definition(m):
                return [f"{what}: component {m:#x} membership differs from the definition"]
        return []

    def _check_ag(self, op, a, b, result) -> list[str]:
        u = a.universe
        if op == "ag_contract":
            impl = (u.full_mask & ~a.assumptions.mask) | a.guarantees.mask
            ok = result.env.maximals == (a.assumptions.mask,) and result.impl.maximals == (impl,)
        elif op == "ag_compose":
            bridged = behavioral.contract_compose(behavioral.ag_to_contract(a), behavioral.ag_to_contract(b))
            direct = behavioral.ag_to_contract(result)
            ok = (direct.env.maximals, direct.impl.maximals) == (bridged.env.maximals, bridged.impl.maximals)
        elif op == "ag_merge_strong":
            ok = (result.assumptions.mask, result.guarantees.mask) == (
                a.assumptions.mask & b.assumptions.mask,
                a.guarantees.mask & b.guarantees.mask,
            )
        else:
            env = {a.assumptions.mask, b.assumptions.mask}
            ok = set(result.env.maximals) <= env and all(result.env.contains(m) for m in env)
        return [] if ok else [f"{op} differs from its definition"]

    def counters(self, pool: list, results: list) -> dict[str, float]:
        candidates = maximals = 0
        for (op, a, b), result in zip(pool, results):
            if op == "quotient":
                candidates += _candidates(a.maximals, b.maximals)
            elif op == "contract_compose":
                candidates += _candidates(a.env.maximals, b.impl.maximals)
                candidates += _candidates(b.env.maximals, a.impl.maximals)
            elif op == "contract_quotient":
                candidates += _candidates(a.impl.maximals, b.impl.maximals)
                candidates += _candidates(b.env.maximals, a.env.maximals)
            if isinstance(result, ConicCompset):
                maximals += result.k
            elif isinstance(result, BehavioralHypercontract):
                maximals += result.env.k + result.impl.k
        return {"behavioral.quotient_candidates": candidates, "behavioral.result_maximals": maximals}
