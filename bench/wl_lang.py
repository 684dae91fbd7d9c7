"""lang-large: few, large languages.

Seeded random complete DFAs of 30-120 raw states over 2-4 symbols.  Moore
refinement (``_canonicalize``) and product exploration do most of the work;
no ``behavioral`` code runs.  Pair sizes are bounded so that every product
stays below the default ``HYPERC_MAX_STATES``.
"""

from __future__ import annotations

from hyperc import jsonio, lang, oracle, receptive
from hyperc.lang import Alphabet, RegularLanguage

import gen

CHECK_LEN = 6

# (kind, ops per pass, smallest and largest size).  A size is the product
# n1 * n2 for two-operand ops and the state count otherwise; sizes are drawn
# log-uniformly, one per stratum, so every seed gets the same size profile.
# The rows form four latency bands, so that the median and p90 each fall in
# the middle of a block of one kind of op, where seed-to-seed differences of
# the random structure move them least:
#   35 % under 2 ms (single-operand ops);
#   30 % inclusions of 2000-2600 product states, half of them true by
#        construction (the median);
#   17 % unc, miss_ext and small boolean ops;
#   18 % boolean ops of 4000-4600 product states (p90).
MIX = (
    ("prefix", 120, 30, 120),
    ("concat_class", 48, 30, 120),
    ("concat_star", 48, 30, 120),
    ("canon", 120, 30, 120),
    ("subset", 288, 2000, 2600),
    ("unc", 72, 300, 1200),
    ("miss_ext", 36, 300, 500),
    ("intersect", 18, 600, 1200),
    ("union", 18, 600, 1200),
    ("difference", 18, 600, 1200),
    ("intersect", 57, 4000, 4600),
    ("union", 57, 4000, 4600),
    ("difference", 57, 4000, 4600),
)

_SPAN = {
    "intersect": "lang.boolean",
    "union": "lang.boolean",
    "difference": "lang.boolean",
    "subset": "lang.subset",
    "canon": "lang.canon",
    "prefix": "lang.prefix",
    "concat_class": "lang.concat",
    "concat_star": "lang.concat",
    "miss_ext": "receptive.miss_ext",
    "unc": "receptive.unc",
}


def _pair(rng, nsym: int, product: int) -> tuple[gen.Dfa, gen.Dfa]:
    """Two random DFAs of 30-120 states whose state counts multiply to about `product`."""
    n1 = rng.randint(max(30, -(-product // 120)), max(30, min(120, product // 30)))
    n2 = max(30, min(120, product // n1))
    return gen.dfa(rng, nsym, n1), gen.dfa(rng, nsym, n2)


class LangLarge:
    name = "lang-large"
    warmup_ops = 8
    spot_checks = 24
    rss_of_children = False

    def __init__(self, root: str):
        self._alphabets = {k: Alphabet(gen.SYMBOLS[:k]) for k in (2, 3, 4)}

    def close(self) -> None:
        pass

    # -- generation -----------------------------------------------------------

    def generate(self, rng, limit: int | None = None) -> list[tuple]:
        pool = []
        for kind, count, lo, hi in MIX:
            if limit is not None and len(pool) >= limit:
                break
            # Sizes are stratified within each alphabet size, so which sizes
            # meet which alphabets does not vary with the seed.
            for j, (nsym, u) in enumerate((nsym, u) for nsym in (2, 3, 4) for u in gen.strata(rng, count // 3)):
                size = round(lo * (hi / lo) ** u)
                if kind in ("intersect", "union", "difference"):
                    pool.append((kind, nsym, *_pair(rng, nsym, size)))
                elif kind == "subset" and j % 2:
                    pool.append((kind, nsym, *_pair(rng, nsym, size), None))
                elif kind == "subset":
                    # a ⊆ a ∪ c, with a ∪ c built here as a raw (unminimized)
                    # product of about `size` states.
                    a = gen.dfa(rng, nsym, rng.randint(80, 120))
                    c = gen.dfa(rng, nsym, max(2, size // len(a.delta)))
                    pool.append((kind, nsym, a, gen.union_product(a, c), True))
                elif kind == "canon":
                    copies = rng.randint(2, 4)
                    pool.append((kind, nsym, gen.inflated_dfa(rng, nsym, max(2, size // copies), copies)))
                elif kind in ("prefix", "concat_star"):
                    pool.append((kind, nsym, gen.dfa(rng, nsym, size)))
                elif kind == "concat_class":
                    pool.append((kind, nsym, gen.dfa(rng, nsym, size), gen.symbols(rng, nsym)))
                elif kind == "miss_ext":
                    pool.append((kind, nsym, *_pair(rng, nsym, size), gen.symbols(rng, nsym)))
                else:
                    pool.append((kind, nsym, *_pair(rng, nsym, size), gen.symbols(rng, nsym), gen.symbols(rng, nsym)))
        rng.shuffle(pool)
        return pool[:limit]

    # -- execution --------------------------------------------------------------

    def prepare(self, spec: tuple) -> list:
        # Fresh objects, so no canonical form is cached from an earlier pass.
        alphabet = self._alphabets[spec[1]]
        return [
            RegularLanguage(alphabet, 0, frozenset(x.accepting), x.delta) if isinstance(x, gen.Dfa) else x
            for x in spec[2:]
        ]

    def execute(self, spec: tuple, args: list, call):
        kind = spec[0]
        span = _SPAN[kind]
        if kind == "intersect":
            return call(span, args[0].intersect, args[1])
        if kind == "union":
            return call(span, args[0].union, args[1])
        if kind == "difference":
            return call(span, args[0].difference, args[1])
        if kind == "subset":
            return call(span, lang.is_subset, args[0], args[1])
        if kind == "canon":
            return call(span, lang.canonicalize, args[0])
        if kind == "prefix":
            return call(span, lang.prefix_closure, args[0])
        if kind == "concat_class":
            return call(span, lang.concat_symbol_class, args[0], args[1])
        if kind == "concat_star":
            return call(span, lang.concat_sigma_star, args[0])
        if kind == "miss_ext":
            return call(span, receptive.miss_ext, args[0], args[1], args[2])
        return call(span, receptive.unc, args[0], args[1], args[2], args[3])

    def outcome_ok(self, spec: tuple, result) -> bool:
        if spec[0] == "subset":
            return isinstance(result, bool) and spec[4] in (None, result)
        return isinstance(result, RegularLanguage)

    def encode(self, spec: tuple, result) -> bytes:
        if isinstance(result, bool):
            return b"true" if result else b"false"
        return jsonio.dumps(jsonio.language_doc(result)).encode()

    # -- correctness gate ----------------------------------------------------------

    def spot_check(self, spec: tuple, result, rng, call) -> list[str]:
        kind = spec[0]
        args = self.prepare(spec)
        if kind == "miss_ext":
            cfg = oracle.BoundedCheckConfig(max_word_len=CHECK_LEN)
            return oracle.check_missext_definition(args[0], args[1], args[2], cfg, candidate=result)
        if kind == "unc":
            cfg = oracle.BoundedCheckConfig(max_word_len=CHECK_LEN)
            return oracle.check_unc_definition(args[0], args[1], args[2], args[3], cfg, candidate=result)
        if kind == "subset":
            expected = gen.raw_subset(spec[2], spec[3])
            return [] if expected == result else [f"is_subset gave {result}, product search gives {expected}"]
        raws = [x for x in spec[2:] if isinstance(x, gen.Dfa)]
        if kind == "prefix":
            raws = [gen.Dfa(tuple(gen.coreachable(raws[0])), raws[0].delta)]
        gamma = set(spec[3]) if kind == "concat_class" else set()
        symbols = gen.SYMBOLS[: spec[1]]

        def expected(word: tuple, members: list[list[bool]]) -> bool:
            # members[i][j]: operand i accepts the prefix of length j.
            here = [m[len(word)] for m in members]
            if kind == "intersect":
                return here[0] and here[1]
            if kind == "union":
                return here[0] or here[1]
            if kind == "difference":
                return here[0] and not here[1]
            if kind in ("canon", "prefix"):
                return here[0]
            if kind == "concat_class":
                return bool(word) and members[0][len(word) - 1] and word[-1] in gamma
            return any(members[0][: len(word) + 1])  # concat_star

        cand = gen.Dfa(tuple(result.accepting), result.delta)
        for word, members, got in gen.words_with_membership(raws, cand, symbols, CHECK_LEN):
            if got != expected(word, members):
                return [f"word {''.join(word) or 'ε'}: result says {got}, definition says {not got}"]
        return []

    def counters(self, pool: list, results: list) -> dict[str, float]:
        product = states = subsets = false = 0
        for spec, result in zip(pool, results):
            kind = spec[0]
            if kind in ("intersect", "union", "difference", "subset"):
                a, b = self.prepare(spec)[:2]
                product += len(lang.product_map(a, b)[0])
            if kind == "subset":
                subsets += 1
                false += result is False
            elif result is not None and _SPAN[kind].startswith("lang."):
                states += result.n_states
        return {
            "lang.product_states": product,
            "lang.result_states": states,
            "lang.subset_false_share": false / subsets if subsets else 0.0,
        }
