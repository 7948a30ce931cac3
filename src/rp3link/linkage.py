"""Certification engine: forcing rules and exhaustive assignment search.

A graph is CERTIFIED when every GF(2) homology assignment on its cycle
space admits forcing evidence under the enabled rules:

  A: two vertex-disjoint simple cycles, both evaluating to 1;
  B: a Petersen-family minor model and an apex vertex v such that the
     pulled-back assignment vanishes on a cycle basis of the member minus v;
  C: a K6 minor model with four branch vertices whose induced K4 pulls
     back to the all-zero functional.

Each rule is a sound obstruction to arising from a link-free embedding
into real projective 3-space, so CERTIFIED graphs are intrinsically
linked there.  UNDECIDED is not a non-linking proof: the enumeration
over-approximates the embedding-realizable assignments.

Assignments are swept in windows of up to 2^16 indices held as bitmap
integers (bit u = assignment u of the window); the parity of ``v & r``
over a window is a Walsh pattern, so every rule reduces to a few big-int
AND/XOR operations per condition.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator

from .canon import canonical_form, canonical_graph, orbits
from .config import DEFAULT_LIMITS, Limits
from .errors import DimensionExceeded, ModelInvalid
from .graphs import Graph
from .homology import (
    HomologyAssignment,
    all_simple_cycles,
    assignment_to_serial,
    cycle_space,
    cycle_vertices,
    lift,
)
from .io_formats import graph_to_g6
from .minors import MinorModel, enumerate_minor_models, validate_model

_K6 = Graph.complete(6)

RULE_NAMES = {1: "A", 2: "C", 3: "B"}


@dataclass(frozen=True)
class RuleAEvidence:
    cycle1: int  # host edge masks
    cycle2: int


@dataclass(frozen=True)
class RuleBEvidence:
    member: str
    model: MinorModel
    apex: int


@dataclass(frozen=True)
class RuleCEvidence:
    model: MinorModel
    quad: tuple[int, int, int, int]


def _parity(x: int) -> int:
    return x.bit_count() & 1


def _rref(vectors: Iterable[int]) -> tuple[int, ...]:
    """Canonical reduced basis of the GF(2) span."""
    piv: dict[int, int] = {}
    for v in vectors:
        while v:
            top = v.bit_length() - 1
            if top in piv:
                v ^= piv[top]
            else:
                piv[top] = v
                break
    for top in sorted(piv, reverse=True):
        for other in piv:
            if other != top and (piv[other] >> top) & 1:
                piv[other] ^= piv[top]
    return tuple(sorted(piv.values(), reverse=True))


def _pattern_edge_mask(g: Graph, edges) -> int:
    mask = 0
    for u, v in edges:
        mask |= 1 << g.edge_index[(u, v) if u < v else (v, u)]
    return mask


class _OnDemand:
    """A sequence filled from an iterator only as far as it is read.

    Indexing and iteration pull items on demand, len() drains the iterator
    and bool() pulls one item.  An exception from the iterator is stored and
    raised again on every later access, so a table whose generator died
    never reads as a complete, shorter one.
    """

    def __init__(self, items: Iterator):
        self._it: Iterator | None = items
        self._items: list = []
        self._error: BaseException | None = None

    @property
    def filled(self) -> int:
        """Number of items generated so far."""
        return len(self._items)

    def _fill(self, n: int | None) -> bool:
        """Generate up to n items (all when n is None); True if n exist."""
        if self._error is not None:
            raise self._error
        items = self._items
        while self._it is not None and (n is None or len(items) < n):
            try:
                items.append(next(self._it))
            except StopIteration:
                self._it = None
            except BaseException as exc:
                self._it, self._error = None, exc
                raise
        return n is None or len(items) >= n

    def __getitem__(self, i: int):
        self._fill(None if i < 0 else i + 1)
        return self._items[i]

    def __iter__(self) -> Iterator:
        i = 0
        while self._fill(i + 1):
            yield self._items[i]
            i += 1

    def __len__(self) -> int:
        self._fill(None)
        return len(self._items)

    def __bool__(self) -> bool:
        return self._fill(1)


class RuleContext:
    """Assignment-independent tables for one host graph.

    Cycles, vertex-disjoint cycle pairs, and the linear conditions backing
    rules B and C are computed once and shared by every assignment sweep;
    all orderings are deterministic so certificates replay bit-exactly.
    Minor models and conditions are generated on demand (`_OnDemand`), so
    a sweep that forces every assignment early never builds the rest.
    """

    def __init__(self, host: Graph, limits: Limits = DEFAULT_LIMITS):
        self.host = host
        self.limits = limits
        self.cs = cycle_space(host)
        self.dim = self.cs.dim
        cyc = sorted(all_simple_cycles(host, limits), key=lambda c: (c.bit_count(), c))
        self.cycles: tuple[int, ...] = tuple(cyc)
        self.cycle_sigs = tuple(self.cs.signature(c) for c in cyc)
        self.cycle_verts = tuple(cycle_vertices(host, c) for c in cyc)
        self.c_models = _OnDemand(enumerate_minor_models(host, _K6, limits=limits))
        # deduped (vectors, model index, quad) conditions in search order
        self.c_conditions = _OnDemand(self._c_condition_stream())
        # deduped (vectors, member, model index, apex) in search order
        self.b_conditions = _OnDemand(self._b_condition_stream())

    # -- rule A ---------------------------------------------------------------

    @cached_property
    def pairs(self) -> list[tuple[int, int]]:
        """Vertex-disjoint cycle pairs, shortest total length first."""
        pairs = []
        nc = len(self.cycles)
        for i in range(nc):
            vi = self.cycle_verts[i]
            for j in range(i + 1, nc):
                if not (vi & self.cycle_verts[j]):
                    pairs.append((i, j))
        pairs.sort(
            key=lambda p: (
                self.cycles[p[0]].bit_count() + self.cycles[p[1]].bit_count(),
                p[0],
                p[1],
            )
        )
        return pairs

    # -- rule C ---------------------------------------------------------------

    def _c_condition_stream(self) -> Iterator[tuple[tuple[int, ...], int, tuple]]:
        seen: set[tuple[int, ...]] = set()
        for mi, model in enumerate(self.c_models):
            for quad in itertools.combinations(range(6), 4):
                tris = [
                    (quad[0], quad[1], quad[2]),
                    (quad[0], quad[1], quad[3]),
                    (quad[0], quad[2], quad[3]),
                ]
                sigs = []
                for a, b, c in tris:
                    pmask = _pattern_edge_mask(_K6, [(a, b), (a, c), (b, c)])
                    sigs.append(self.cs.signature(lift(model, pmask)))
                key = _rref(sigs)
                if key not in seen:
                    seen.add(key)
                    yield key, mi, quad

    # -- rule B ---------------------------------------------------------------

    @cached_property
    def b_models(self) -> dict[str, _OnDemand]:
        from .families import petersen_family

        fam = petersen_family()
        # K6 is a family member too: share the rule-C models
        return {
            name: self.c_models
            if g == _K6
            else _OnDemand(enumerate_minor_models(self.host, g, limits=self.limits))
            for name, g in fam.members.items()
            if g.n <= self.host.n and g.m <= self.host.m
        }

    def _b_condition_stream(self) -> Iterator[tuple[tuple[int, ...], str, int, int]]:
        seen: set[tuple[int, ...]] = set()
        for name, models in self.b_models.items():
            if not models:
                continue
            member = models[0].pattern
            apex_basis: dict[int, list[int]] = {}
            for apex in range(member.n):
                sub = member.delete_vertex(apex)
                masks = []
                for bmask in cycle_space(sub).basis:
                    edges = [
                        (a + (a >= apex), b + (b >= apex))
                        for a, b in sub.edges_of_mask(bmask)
                    ]
                    masks.append(_pattern_edge_mask(member, edges))
                apex_basis[apex] = masks
            for mi, model in enumerate(models):
                for apex in range(member.n):
                    sigs = [
                        self.cs.signature(lift(model, pmask))
                        for pmask in apex_basis[apex]
                    ]
                    key = _rref(sigs)
                    if key not in seen:
                        seen.add(key)
                        yield key, name, mi, apex


_CTX_CACHE: dict[tuple[Graph, Limits], RuleContext] = {}


def rule_context(host: Graph, limits: Limits = DEFAULT_LIMITS) -> RuleContext:
    ctx = _CTX_CACHE.get((host, limits))
    if ctx is None:
        ctx = RuleContext(host, limits)
        _CTX_CACHE[host, limits] = ctx
    return ctx


def parse_rules(rules: str) -> str:
    """The enabled rules in sweep order (A, C, B), case-insensitively.

    Raises ValueError for an empty string or any letter but A, B and C.
    """
    wanted = rules.upper()
    if not wanted or set(wanted) - set("ABC"):
        raise ValueError(f"rule string {rules!r} must name one or more of A, B, C")
    return "".join(r for r in "ACB" if r in wanted)


# -- single-assignment rule functions ----------------------------------------


def rule_a(g: Graph, phi: HomologyAssignment, ctx: RuleContext | None = None):
    """Two vertex-disjoint 1-homologous cycles, shortest pair first."""
    ctx = ctx or rule_context(g)
    v = phi.values
    for i, j in ctx.pairs:
        if _parity(v & ctx.cycle_sigs[i]) and _parity(v & ctx.cycle_sigs[j]):
            return RuleAEvidence(ctx.cycles[i], ctx.cycles[j])
    return None


def rule_c(g: Graph, phi: HomologyAssignment, ctx: RuleContext | None = None):
    """A K6 minor whose induced K4 on some branch quad pulls back to zero."""
    ctx = ctx or rule_context(g)
    v = phi.values
    for vecs, mi, quad in ctx.c_conditions:
        if all(not _parity(v & r) for r in vecs):
            return RuleCEvidence(ctx.c_models[mi], quad)
    return None


def rule_b(g: Graph, phi: HomologyAssignment, ctx: RuleContext | None = None):
    """A Petersen-family minor with an apex whose complement pulls back to zero."""
    ctx = ctx or rule_context(g)
    v = phi.values
    for vecs, name, mi, apex in ctx.b_conditions:
        if all(not _parity(v & r) for r in vecs):
            return RuleBEvidence(name, ctx.b_models[name][mi], apex)
    return None


# -- windowed sweep -----------------------------------------------------------

_WINDOW_BITS = 16


def _base_patterns(w: int) -> list[int]:
    pats = []
    width = 1 << w
    for i in range(w):
        p = ((1 << (1 << i)) - 1) << (1 << i)
        span = 1 << (i + 1)
        while span < width:
            p |= p << span
            span <<= 1
        pats.append(p)
    return pats


class _Sweeper:
    def __init__(self, ctx: RuleContext, rules: str, window_bits: int | None = None):
        self.ctx = ctx
        self.rules = rules
        self.w = min(ctx.dim, _WINDOW_BITS if window_bits is None else window_bits)
        self.width = 1 << self.w
        self.full = (1 << self.width) - 1
        self.low_mask = (1 << self.w) - 1
        self.base = _base_patterns(self.w)
        self._pat: dict[int, int] = {0: 0}

    def _pattern(self, low: int) -> int:
        p = self._pat.get(low)
        if p is None:
            lsb = low & -low
            p = self._pattern(low ^ lsb) ^ self.base[lsb.bit_length() - 1]
            self._pat[low] = p
        return p

    def ones(self, sig: int, win: int) -> int:
        """Bitmap of window offsets u with parity((win<<w | u) & sig) = 1."""
        p = self._pattern(sig & self.low_mask)
        if _parity(win & (sig >> self.w)):
            p ^= self.full
        return p

    def sweep(self, win: int) -> tuple[bytearray, list[int], list[int]]:
        """Rule and evidence index per offset of one window, plus how many
        C and B conditions were examined (the highest index tested + 1).

        The bitmap is tested for emptiness right after a condition forced
        something, so no condition past the last useful one is fetched.
        """
        ctx = self.ctx
        full = self.full
        rule_of = bytearray(self.width)
        ev_of = [0] * self.width
        undec = full
        if "A" in self.rules:
            sigs = ctx.cycle_sigs
            for pid, (i, j) in enumerate(ctx.pairs):
                h = self.ones(sigs[i], win) & self.ones(sigs[j], win) & undec
                if h:
                    undec &= ~h
                    while h:
                        lsb = h & -h
                        u = lsb.bit_length() - 1
                        h ^= lsb
                        rule_of[u] = 1
                        ev_of[u] = pid
                    if not undec:
                        break
        examined = [0, 0]
        for k, (rule, code, table) in enumerate(
            (("C", 2, ctx.c_conditions), ("B", 3, ctx.b_conditions))
        ):
            if rule not in self.rules or not undec:
                continue
            for cid, cond in enumerate(table):
                examined[k] = cid + 1
                h = undec
                for r in cond[0]:
                    h &= self.ones(r, win) ^ full
                    if not h:
                        break
                if h:
                    undec &= ~h
                    while h:
                        lsb = h & -h
                        u = lsb.bit_length() - 1
                        h ^= lsb
                        rule_of[u] = code
                        ev_of[u] = cid
                    if not undec:
                        break
        return rule_of, ev_of, examined


_FORK_CTX: dict = {}


def _sweep_chunk(args):
    lo, hi = args
    sweeper: _Sweeper = _FORK_CTX["sweeper"]
    rules = bytearray()
    evs: list[int] = []
    examined = [0, 0]
    for win in range(lo, hi):
        r, e, x = sweeper.sweep(win)
        rules.extend(r)
        evs.extend(e)
        examined = [max(pair) for pair in zip(examined, x)]
    return bytes(rules), evs, examined


@dataclass
class Certificate:
    """Outcome of an exhaustive assignment sweep over one graph."""

    graph: Graph
    canon_g6: str
    rules: str
    dim: int
    verdict: str
    rule_of: bytearray        # per assignment: 0 unforced, 1 A, 2 C, 3 B
    ev_of: list[int]          # per assignment: index into the rule's table
    counts: dict[str, int]
    unforced: list[int]
    stats: dict[str, int]
    wall_time: float
    ctx: RuleContext

    def evidence(self, assignment: int):
        rule = self.rule_of[assignment]
        idx = self.ev_of[assignment]
        ctx = self.ctx
        if rule == 1:
            i, j = ctx.pairs[idx]
            return RuleAEvidence(ctx.cycles[i], ctx.cycles[j])
        if rule == 2:
            _, mi, quad = ctx.c_conditions[idx]
            return RuleCEvidence(ctx.c_models[mi], quad)
        if rule == 3:
            _, name, mi, apex = ctx.b_conditions[idx]
            return RuleBEvidence(name, ctx.b_models[name][mi], apex)
        return None

    def unforced_serials(self) -> list[str]:
        return [
            assignment_to_serial(HomologyAssignment(self.graph, v))
            for v in self.unforced
        ]

    def report_dict(self, include_timing: bool = True) -> dict:
        doc = {
            "graph": self.canon_g6,
            "rules": self.rules,
            "verdict": self.verdict,
            "dim": self.dim,
            "assignments": 1 << self.dim,
            "counts": self.counts,
            "unforced": self.unforced_serials(),
            "stats": self.stats,
        }
        if include_timing:
            doc["wall_time_s"] = round(self.wall_time, 3)
        return doc

    def to_json(self, include_timing: bool = True) -> str:
        return json.dumps(self.report_dict(include_timing), sort_keys=True,
                          separators=(",", ":")) + "\n"

    def verify(self, sample: Iterable[int] | None = None) -> int:
        """Re-validate evidence from scratch; returns the number checked."""
        return verify_certificate(self, sample)


def certify(
    g: Graph,
    rules: str = "ABC",
    jobs: int = 1,
    limits: Limits = DEFAULT_LIMITS,
) -> Certificate:
    """Sweep all 2^dim assignments, attaching evidence in A, C, B order."""
    rules = parse_rules(rules)
    t0 = time.perf_counter()
    ctx = rule_context(g, limits)
    if ctx.dim > limits.max_dim:
        raise DimensionExceeded(f"dimension {ctx.dim} exceeds cap {limits.max_dim}")
    window_bits = None
    if jobs > 1 and ctx.dim > 4:
        # several windows per worker; the split never changes results
        window_bits = max(4, min(_WINDOW_BITS, ctx.dim - (4 * jobs - 1).bit_length()))
    sweeper = _Sweeper(ctx, rules, window_bits)
    nwin = 1 << max(0, ctx.dim - sweeper.w)
    if jobs <= 1 or nwin == 1:
        parts = map(sweeper.sweep, range(nwin))
    else:
        import multiprocessing as mp
        from concurrent.futures import ProcessPoolExecutor

        # window 0 is swept here first: the A pairs and the prefix of the lazy
        # C and B tables that it reads are then inherited by every worker,
        # and a worker fills its own copy further only if its windows need it
        parts = [sweeper.sweep(0)]
        _FORK_CTX["sweeper"] = sweeper
        chunk = (nwin - 1 + jobs - 1) // jobs
        ranges = [(lo, min(lo + chunk, nwin)) for lo in range(1, nwin, chunk)]
        try:
            fork = mp.get_context("fork")
            with ProcessPoolExecutor(max_workers=jobs, mp_context=fork) as pool:
                parts.extend(pool.map(_sweep_chunk, ranges))
        finally:
            _FORK_CTX.clear()
    rule_of = bytearray()
    ev_of: list[int] = []
    examined = [0, 0]
    for r, e, x in parts:
        rule_of.extend(r)
        ev_of.extend(e)
        examined = [max(pair) for pair in zip(examined, x)]

    total = 1 << ctx.dim
    rule_of = rule_of[:total]
    ev_of = ev_of[:total]
    unforced = [v for v in range(total) if rule_of[v] == 0]
    counts = {
        "A": sum(1 for r in rule_of if r == 1),
        "C": sum(1 for r in rule_of if r == 2),
        "B": sum(1 for r in rule_of if r == 3),
    }
    stats = {
        "cycles": len(ctx.cycles),
        "disjoint_pairs": len(ctx.pairs) if "A" in rules else 0,
        "c_conditions": examined[0],
        "b_conditions": examined[1],
    }
    verdict = "CERTIFIED" if not unforced else "UNDECIDED"
    return Certificate(
        graph=g,
        canon_g6=graph_to_g6(canonical_graph(g, limits)),
        rules=rules,
        dim=ctx.dim,
        verdict=verdict,
        rule_of=rule_of,
        ev_of=ev_of,
        counts=counts,
        unforced=unforced,
        stats=stats,
        wall_time=time.perf_counter() - t0,
        ctx=ctx,
    )


# -- independent re-validation -------------------------------------------------


class _IndependentEvaluator:
    """Evaluates assignments by decomposing cycles over the fundamental basis
    with fresh Gaussian elimination (no signature shortcut)."""

    def __init__(self, host: Graph):
        self.host = host
        cs = cycle_space(host)
        self.basis = list(cs.basis)
        self.piv: dict[int, tuple[int, int]] = {}  # leading edge bit -> (mask, coeffs)
        for i, b in enumerate(self.basis):
            mask, coeffs = b, 1 << i
            while mask:
                top = mask.bit_length() - 1
                if top in self.piv:
                    pm, pc = self.piv[top]
                    mask ^= pm
                    coeffs ^= pc
                else:
                    self.piv[top] = (mask, coeffs)
                    break

    def decompose(self, cycle_mask: int) -> int:
        mask, coeffs = cycle_mask, 0
        while mask:
            top = mask.bit_length() - 1
            if top not in self.piv:
                raise ModelInvalid("edge set outside the cycle space")
            pm, pc = self.piv[top]
            mask ^= pm
            coeffs ^= pc
        return coeffs

    def value(self, values: int, cycle_mask: int) -> int:
        return _parity(self.decompose(cycle_mask) & values)


def _is_simple_cycle(g: Graph, mask: int) -> bool:
    verts = cycle_vertices(g, mask)
    deg = {v: 0 for v in range(g.n) if (verts >> v) & 1}
    m = mask
    while m:
        lsb = m & -m
        u, v = g.edges[lsb.bit_length() - 1]
        deg[u] += 1
        deg[v] += 1
        m ^= lsb
    if any(d != 2 for d in deg.values()):
        return False
    # connectivity of the support
    start = next(iter(deg))
    seen = {start}
    frontier = [start]
    while frontier:
        a = frontier.pop()
        mm = mask
        while mm:
            lsb = mm & -mm
            u, v = g.edges[lsb.bit_length() - 1]
            mm ^= lsb
            if u == a and v not in seen:
                seen.add(v)
                frontier.append(v)
            elif v == a and u not in seen:
                seen.add(u)
                frontier.append(u)
    return len(seen) == len(deg)


def verify_certificate(cert: Certificate, sample: Iterable[int] | None = None) -> int:
    """Re-check every piece of evidence against its invariants.

    Structural objects (cycles, models) are validated once; per-assignment
    values are recomputed with the independent decomposition evaluator.
    Raises ModelInvalid on the first failure.
    """
    g = cert.graph
    ev = _IndependentEvaluator(g)
    ctx = cert.ctx
    checked_structs: set[tuple[int, int]] = set()

    fam_codes: dict[str, bytes] = {}

    def check_structure(rule: int, idx: int) -> None:
        if (rule, idx) in checked_structs:
            return
        checked_structs.add((rule, idx))
        if rule == 1:
            i, j = ctx.pairs[idx]
            c1, c2 = ctx.cycles[i], ctx.cycles[j]
            if not (_is_simple_cycle(g, c1) and _is_simple_cycle(g, c2)):
                raise ModelInvalid("rule A evidence is not a pair of simple cycles")
            if cycle_vertices(g, c1) & cycle_vertices(g, c2):
                raise ModelInvalid("rule A cycles share a vertex")
        elif rule == 2:
            _, mi, quad = ctx.c_conditions[idx]
            model = ctx.c_models[mi]
            validate_model(model)
            if canonical_form(model.pattern) != canonical_form(_K6):
                raise ModelInvalid("rule C pattern is not K6")
            if len(set(quad)) != 4:
                raise ModelInvalid("rule C quad must name four branch vertices")
        elif rule == 3:
            _, name, mi, apex = ctx.b_conditions[idx]
            model = ctx.b_models[name][mi]
            validate_model(model)
            if name not in fam_codes:
                from .families import petersen_family

                fam_codes.update(
                    {n: canonical_form(m) for n, m in petersen_family().members.items()}
                )
            if canonical_form(model.pattern) != fam_codes[name]:
                raise ModelInvalid(f"rule B pattern is not {name}")
            if not (0 <= apex < model.pattern.n):
                raise ModelInvalid("rule B apex outside pattern")

    assignments = sample if sample is not None else range(1 << cert.dim)
    checked = 0
    for v in assignments:
        rule = cert.rule_of[v]
        if rule == 0:
            continue
        idx = cert.ev_of[v]
        check_structure(rule, idx)
        if rule == 1:
            i, j = ctx.pairs[idx]
            if not (ev.value(v, ctx.cycles[i]) and ev.value(v, ctx.cycles[j])):
                raise ModelInvalid(f"rule A cycles not both 1-homologous at {v}")
        elif rule == 2:
            _, mi, quad = ctx.c_conditions[idx]
            model = ctx.c_models[mi]
            for a, b, c in itertools.combinations(quad, 3):
                pmask = _pattern_edge_mask(_K6, [(a, b), (a, c), (b, c)])
                if ev.value(v, lift(model, pmask)):
                    raise ModelInvalid(f"rule C triangle not 0-homologous at {v}")
        elif rule == 3:
            _, name, mi, apex = ctx.b_conditions[idx]
            model = ctx.b_models[name][mi]
            member = model.pattern
            sub = member.delete_vertex(apex)
            for bmask in cycle_space(sub).basis:
                edges = [
                    (a + (a >= apex), b + (b >= apex))
                    for a, b in sub.edges_of_mask(bmask)
                ]
                pmask = _pattern_edge_mask(member, edges)
                if ev.value(v, lift(model, pmask)):
                    raise ModelInvalid(f"rule B basis cycle not 0-homologous at {v}")
        checked += 1
    return checked


# -- minimality scans -----------------------------------------------------------


@dataclass
class MinimalityEntry:
    edge: tuple[int, int]
    operation: str
    verdict: str
    unforced_count: int


@dataclass
class MinimalityReport:
    graph_g6: str
    rules: str
    edge_orbit_count: int
    entries: list[MinimalityEntry] = field(default_factory=list)

    @property
    def engine_minimal(self) -> bool:
        return all(e.verdict == "UNDECIDED" for e in self.entries)

    def report_dict(self) -> dict:
        return {
            "graph": self.graph_g6,
            "rules": self.rules,
            "edge_orbits": self.edge_orbit_count,
            "engine_minimal": self.engine_minimal,
            "entries": [
                {
                    "edge": list(e.edge),
                    "operation": e.operation,
                    "verdict": e.verdict,
                    "unforced": e.unforced_count,
                }
                for e in self.entries
            ],
        }


def minimality_scan(
    g: Graph,
    rules: str = "ABC",
    jobs: int = 1,
    limits: Limits = DEFAULT_LIMITS,
) -> MinimalityReport:
    """Certify both one-step minors for one representative per edge orbit."""
    rules = parse_rules(rules)
    table = orbits(g, limits)
    edge_orbits = [
        orb for orb in table.pair_orbits if g.has_edge(*orb[0])
    ]
    report = MinimalityReport(
        graph_g6=graph_to_g6(canonical_graph(g, limits)),
        rules=rules,
        edge_orbit_count=len(edge_orbits),
    )
    for orb in edge_orbits:
        e = orb[0]
        for op_name, minor in (
            ("delete", g.delete_edge(*e)),
            ("contract", g.contract_edge(*e)),
        ):
            cert = certify(minor, rules=rules, jobs=jobs, limits=limits)
            report.entries.append(
                MinimalityEntry(e, op_name, cert.verdict, len(cert.unforced))
            )
    return report
