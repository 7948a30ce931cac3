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

Rules C and B state one kind of condition: a model of a family member
(K6 for C) and a set of its vertices, a quad for C and every vertex but
the apex for B, whose induced subgraph pulls back to zero.  One generator,
`RuleContext._conditions`, builds both tables: lifts are GF(2)-linear, so
each model's pattern edges are lifted and reduced to signatures once (the
branch-tree root paths once per branch-set assignment), and a cycle of the
kept subgraph pulls back to the XOR of its edges' signatures.
`verify_certificate` keeps its own statement of both rules and lifts every
cycle afresh.

Assignments are swept in windows of up to 2^16 indices held as bitmap
integers (bit u = assignment u of the window); the parity of ``v & r``
over a window is a Walsh pattern, so every rule reduces to a few big-int
AND/XOR operations per condition.  Each cycle's bitmap is built at most
once per window, when a rule-A pair first needs it, and set to 0 once the
cycle is even on every assignment still undecided: for the rest of the
window a pair with that cycle costs one list lookup.  The bitmaps a
window forces are kept as the bit planes of their entry numbers and
decoded once, when the window is done (`_Forced`): each plane is spread
to a byte per assignment with ``format`` and ``bytes.translate``, and the
entry numbers so assembled index the rule codes and table indices that
go into the per-assignment rule and evidence arrays (a bytearray, and an
``array('I')`` of unsigned ints, which holds no negative index).

`verify_certificate` reads those arrays a window at a time as well, with
its own window size and parity bitmaps: the window's rule codes and
evidence indices become bit planes, the assignments citing one piece of
evidence are the AND of the planes (or their complements) of its key,
and each such group is checked against that evidence's claim at once.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from array import array
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable, Iterator

from .canon import canonical_form, canonical_graph, orbits
from .config import DEFAULT_LIMITS, Limits
from .errors import DimensionExceeded, ModelInvalid
from .graphs import Graph, norm_edge
from .homology import (
    HomologyAssignment,
    all_simple_cycles,
    assignment_to_serial,
    cycle_space,
    cycle_vertices,
    lift,
)
from .io_formats import graph_to_g6
from .minors import MinorModel, enumerate_minor_models, is_minor, validate_model

_K6 = Graph.complete(6)


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

    `minor_of` holds graphs the host is known to be a minor of; a caller
    fills it before the first model is read.  A member that is no minor
    of one of them is no minor of the host either (the minor relation is
    transitive), so its model stream is empty without a search on the
    host.  The absence is proved on the larger graph once, by
    `_proved_absent`, and shared by every context that names that graph.
    """

    def __init__(self, host: Graph, limits: Limits = DEFAULT_LIMITS):
        self.host = host
        self.limits = limits
        self.minor_of: set[Graph] = set()
        self.cs = cycle_space(host)
        self.dim = self.cs.dim
        # checked before enumerating: a graph over the cap can have too many
        # simple cycles to enumerate
        if self.dim > limits.max_dim:
            raise DimensionExceeded(f"dimension {self.dim} exceeds cap {limits.max_dim}")
        cyc = sorted(all_simple_cycles(host, limits), key=lambda c: (c.bit_count(), c))
        self.cycles: tuple[int, ...] = tuple(cyc)
        self.cycle_sigs = tuple(self.cs.signature(c) for c in cyc)
        self.cycle_verts = tuple(cycle_vertices(host, c) for c in cyc)
        self.c_models = _OnDemand(self._models(_K6))
        quads = [(quad, quad) for quad in itertools.combinations(range(6), 4)]
        # deduped (vectors, "K6", model index, quad) conditions in search order
        self.c_conditions = _OnDemand(self._conditions([("K6", _K6, self.c_models, quads)]))
        # deduped (vectors, member, model index, apex) in search order
        self.b_conditions = _OnDemand(self._conditions(self._b_jobs()))

    # -- rule A ---------------------------------------------------------------

    @cached_property
    def pairs(self) -> list[tuple[int, int]]:
        """Vertex-disjoint cycle pairs, shortest total length first."""
        # without[v]: the cycles that avoid vertex v, as a mask of indices
        nc = len(self.cycles)
        every = (1 << nc) - 1
        without = [every] * self.host.n
        for i, verts in enumerate(self.cycle_verts):
            while verts:
                lsb = verts & -verts
                verts ^= lsb
                without[lsb.bit_length() - 1] ^= 1 << i
        pairs = []
        for i, verts in enumerate(self.cycle_verts):
            partners = every & ~((2 << i) - 1)
            while verts and partners:
                lsb = verts & -verts
                verts ^= lsb
                partners &= without[lsb.bit_length() - 1]
            while partners:
                lsb = partners & -partners
                partners ^= lsb
                pairs.append((i, lsb.bit_length() - 1))
        length = [c.bit_count() for c in self.cycles]
        pairs.sort(key=lambda p: (length[p[0]] + length[p[1]], p[0], p[1]))
        return pairs

    # -- rules C and B -----------------------------------------------------------

    def _models(self, member: Graph) -> Iterator[MinorModel]:
        """The models of member in the host, or none when member fits the
        host but is no minor of a graph in `minor_of`."""
        host = self.host
        if member.n <= host.n and member.m <= host.m and any(
            _proved_absent(member, larger, self.limits) for larger in self.minor_of
        ):
            return
        yield from enumerate_minor_models(host, member, limits=self.limits)

    @cached_property
    def b_models(self) -> dict[str, _OnDemand]:
        from .families import petersen_family

        fam = petersen_family()
        # K6 is a family member too: share the rule-C models
        return {
            name: self.c_models if g == _K6 else _OnDemand(self._models(g))
            for name, g in fam.members.items()
            if g.n <= self.host.n and g.m <= self.host.m
        }

    def _b_jobs(self) -> Iterator[tuple[str, Graph, _OnDemand, list]]:
        from .families import petersen_family

        members = petersen_family().members
        for name, models in self.b_models.items():
            member = members[name]
            yield name, member, models, [
                (apex, [v for v in range(member.n) if v != apex])
                for apex in range(member.n)
            ]

    def _conditions(self, jobs) -> Iterator[tuple[tuple[int, ...], str, int, tuple | int]]:
        """Deduplicated (vectors, member, model index, label) conditions.

        jobs yields (member name, member, models, [(label, kept), ...]): a
        condition says that the subgraph of the member induced on the kept
        vertices pulls back to zero through the model.  Its vectors are the
        `_rref` of the signatures of the lifts of a cycle basis of that
        subgraph; lift is linear, so each is the XOR of the signatures of
        the edge lifts along its cycle, computed once per model
        (`_edge_sigs`).  A vector tuple met before spans the same space, so
        its key is already seen and it is skipped without `_rref`.
        """
        seen: set[tuple[int, ...]] = set()
        seen_raw: set[tuple[int, ...]] = set()
        for name, member, models, kept_sets in jobs:
            bases = [_kept_basis(member, kept) for _, kept in kept_sets]
            for mi, sigs in enumerate(self._edge_sigs(models)):
                for (label, _), basis in zip(kept_sets, bases):
                    vecs = []
                    for cycle in basis:
                        x = 0
                        for pi in cycle:
                            x ^= sigs[pi]
                        vecs.append(x)
                    raw = tuple(vecs)
                    if raw in seen_raw:
                        continue
                    seen_raw.add(raw)
                    key = _rref(raw)
                    if key not in seen:
                        seen.add(key)
                        yield key, name, mi, label

    def _edge_sigs(self, models: Iterable[MinorModel]) -> Iterator[list[int]]:
        """The signatures of each model's edge lifts, in pattern.edges order.

        The lift of a pattern edge is its mapped host edge uv plus the
        branch-tree paths from the roots to u and v; signatures are linear,
        so its signature is sig(uv) ^ psig[u] ^ psig[v].  The models of one
        branch-set assignment share its trees and differ only in their edge
        maps, so the root-path signatures psig are computed once per
        assignment, walking each tree in its BFS order (each edge comes
        after one of its ends is reached).
        """
        eidx = self.host.edge_index
        esig = [self.cs.signature(1 << ei) for ei in range(self.host.m)]
        psig = [0] * self.host.n
        trees = None
        for model in models:
            if model.branch_trees is not trees:
                trees = model.branch_trees
                for bs, tree in zip(model.branch_sets, trees):
                    psig[bs[0]] = 0
                    reached = 1 << bs[0]
                    for u, v in tree:
                        if reached >> u & 1:
                            psig[v] = psig[u] ^ esig[eidx[u, v]]
                            reached |= 1 << v
                        else:
                            psig[u] = psig[v] ^ esig[eidx[u, v]]
                            reached |= 1 << u
            yield [esig[eidx[e]] ^ psig[e[0]] ^ psig[e[1]] for e in model.edge_map]

    def conditions(self, code: int) -> _OnDemand:
        """The condition table of rule C (code 2) or B (code 3)."""
        return self.c_conditions if code == 2 else self.b_conditions

    def has_entry(self, code: int, idx: int) -> bool:
        """True when code is 1, 2 or 3 and its table has an entry idx."""
        if code == 1:
            return 0 <= idx < len(self.pairs)
        return code in (2, 3) and idx >= 0 and self.conditions(code)._fill(idx + 1)

    def evidence(self, code: int, idx: int):
        """The evidence behind entry idx of a rule's table: a rule-A pair
        (code 1), a C condition (2) or a B condition (3).  Raises
        ValueError for any other code or an idx outside the table."""
        if not self.has_entry(code, idx):
            raise ValueError(f"rule code {code} has no evidence {idx}")
        if code == 1:
            i, j = self.pairs[idx]
            return RuleAEvidence(self.cycles[i], self.cycles[j])
        _, name, mi, label = self.conditions(code)[idx]
        if code == 2:
            return RuleCEvidence(self.c_models[mi], label)
        return RuleBEvidence(name, self.b_models[name][mi], label)


def _kept_basis(member: Graph, kept: list[int]) -> list[list[int]]:
    """A cycle basis of the subgraph of member induced on kept, each cycle
    as the indices of its member edges."""
    sub = member.induced_subgraph(kept)
    return [
        [member.edge_index[(kept[a], kept[b])] for a, b in sub.edges_of_mask(bmask)]
        for bmask in cycle_space(sub).basis
    ]


@lru_cache(maxsize=64)
def _proved_absent(member: Graph, host: Graph, limits: Limits) -> bool:
    """True when member is no minor of host.  Cached: a minimality scan
    asks it of the scanned graph for each of its one-step minors."""
    return is_minor(member, host, limits) is None


@lru_cache(maxsize=64)
def _cached_context(host: Graph, limits: Limits) -> RuleContext:
    return RuleContext(host, limits)


def rule_context(host: Graph, limits: Limits = DEFAULT_LIMITS) -> RuleContext:
    """The context of (host, limits), one of the 64 most recently used.

    lru_cache keys on the arguments as passed, so the default is filled in
    here: rule_context(g) and certify(g) must share one context.
    """
    return _cached_context(host, limits)


rule_context.cache_clear = _cached_context.cache_clear  # type: ignore[attr-defined]


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
    for pid, (i, j) in enumerate(ctx.pairs):
        if _parity(v & ctx.cycle_sigs[i]) and _parity(v & ctx.cycle_sigs[j]):
            return ctx.evidence(1, pid)
    return None


def _first_vanishing(ctx: RuleContext, code: int, phi: HomologyAssignment):
    v = phi.values
    for idx, cond in enumerate(ctx.conditions(code)):
        if not any(_parity(v & r) for r in cond[0]):
            return ctx.evidence(code, idx)
    return None


def rule_c(g: Graph, phi: HomologyAssignment, ctx: RuleContext | None = None):
    """A K6 minor whose induced K4 on some branch quad pulls back to zero."""
    return _first_vanishing(ctx or rule_context(g), 2, phi)


def rule_b(g: Graph, phi: HomologyAssignment, ctx: RuleContext | None = None):
    """A Petersen-family minor with an apex whose complement pulls back to zero."""
    return _first_vanishing(ctx or rule_context(g), 3, phi)


# -- windowed sweep -----------------------------------------------------------

# a window of 2^16 assignments often empties early and keeps the memo of
# patterns small; one window over all 2^dim is ~10x slower at dim 20
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


# a window's forced assignments are decoded this many at a time: decoding
# all 2^16 at once raised peak memory
_CHUNK = 4096
# _SPREAD[k] turns the digits '0' and '1' into the bytes 0 and 1 << k
_SPREAD = tuple(bytes.maketrans(b"01", bytes((0, 1 << k))) for k in range(8))


class _Forced:
    """The forced bitmaps of one window, as the bit planes of their 1-based
    entry number: bit u of planes[b] is bit b of the entry that forced
    assignment u of the window, 0 when none did.  Entry e holds rule code
    codes[e] and table index idxs[e]."""

    def __init__(self):
        self.planes: list[int] = []
        self.codes = [0]
        self.idxs = [0]

    def add(self, h: int, code: int, idx: int) -> None:
        """Record that bitmap h, disjoint from the bitmaps added before,
        is forced by entry idx of rule code."""
        e = len(self.codes)
        self.codes.append(code)
        self.idxs.append(idx)
        planes = self.planes
        if e.bit_length() > len(planes):
            planes.append(0)
        b = 0
        while e:
            if e & 1:
                planes[b] |= h
            e >>= 1
            b += 1

    def write(self, start: int, width: int, rule_of: bytearray, ev_of: array) -> None:
        """Set rule_of[start + u] and ev_of[start + u], for u < width, to
        the rule code and table index of the entry that forced assignment
        u, or to 0 when none did.  Raises OverflowError for an index that
        does not fit in ev_of.

        Each chunk of assignments gets a lane of 1, 2 or 4 bytes per
        assignment, wide enough for the entry numbers: every plane is spread
        to a byte per assignment by format/translate and placed at its byte
        of the lane, and the lanes are mapped through codes and idxs.
        """
        planes, codes, idxs = self.planes, self.codes, self.idxs
        nbits = len(planes)
        lane, typecode = (1, "B") if nbits <= 8 else (2, "H") if nbits <= 16 else (4, "I")
        places = range(lane) if sys.byteorder == "little" else range(lane - 1, -1, -1)
        n = min(width, _CHUNK)
        mask = (1 << n) - 1
        digits = f"0{n}b"
        for off in range(0, width, n):
            buf = bytearray(n * lane)
            for g, place in enumerate(places):
                spread = 0
                for k, plane in enumerate(planes[8 * g:8 * g + 8]):
                    bits = format(plane >> off & mask, digits)[::-1].encode()
                    spread |= int.from_bytes(bits.translate(_SPREAD[k]), "little")
                buf[place::lane] = spread.to_bytes(n, "little")
            lanes = memoryview(buf).cast(typecode)
            s = start + off
            rule_of[s:s + n] = bytes(map(codes.__getitem__, lanes))
            ev_of[s:s + n] = array("I", map(idxs.__getitem__, lanes))


class _Sweeper:
    def __init__(self, ctx: RuleContext, rules: str):
        self.ctx = ctx
        self.rules = rules
        self.w = min(ctx.dim, _WINDOW_BITS)
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

    def sweep(self, win: int, rule_of: bytearray, ev_of: array) -> list[int]:
        """Write the rule and evidence index of every assignment of one
        window into rule_of/ev_of (indexed by assignment); return how many
        C and B conditions were examined (the highest index tested + 1).

        A cycle's window bitmap is built the first time a pair needs it and
        dropped with the window.  Once a cycle is even on every undecided
        assignment its bitmap is set to 0: the undecided set only shrinks,
        so no later pair with that cycle can force anything, and such a
        pair costs one list lookup.  The first cycle of a pair is tested by
        the AND the pair needs anyway, the second when the pair forces
        nothing, at most once per shrink of the undecided set.  The bitmap
        of undecided assignments is tested for emptiness right after a
        condition forced something, so no condition past the last useful
        one is fetched.  The forced bitmaps are decoded into rule_of/ev_of
        once, at the end.
        """
        ctx = self.ctx
        full = self.full
        undec = full
        forced = _Forced()
        if "A" in self.rules:
            sigs = ctx.cycle_sigs
            bitmaps: list[int | None] = [None] * len(sigs)
            # live[j] == len(forced.codes): cycle j was found odd on an
            # undecided assignment after undec last shrank, so a pair that
            # forces nothing tests the second cycle once per shrink
            live = [0] * len(sigs)
            for pid, (i, j) in enumerate(ctx.pairs):
                hi = bitmaps[i]
                if hi is None:
                    hi = bitmaps[i] = self.ones(sigs[i], win)
                if not hi:
                    continue
                hj = bitmaps[j]
                if hj is None:
                    hj = bitmaps[j] = self.ones(sigs[j], win)
                if not hj:
                    continue
                h = undec & hi
                if not h:
                    bitmaps[i] = 0
                    continue
                h &= hj
                if h:
                    undec ^= h
                    forced.add(h, 1, pid)
                    if not undec:
                        break
                elif live[j] != len(forced.codes):
                    if undec & hj:
                        live[j] = len(forced.codes)
                    else:
                        bitmaps[j] = 0
        examined = [0, 0]
        for k, (rule, code) in enumerate((("C", 2), ("B", 3))):
            if rule not in self.rules or not undec:
                continue
            for cid, cond in enumerate(ctx.conditions(code)):
                examined[k] = cid + 1
                h = undec
                for r in cond[0]:
                    h &= self.ones(r, win) ^ full
                    if not h:
                        break
                if h:
                    undec ^= h
                    forced.add(h, code, cid)
                    if not undec:
                        break
        forced.write(win << self.w, self.width, rule_of, ev_of)
        return examined


@dataclass
class Certificate:
    """Outcome of an exhaustive assignment sweep over one graph."""

    graph: Graph
    canon_g6: str
    rules: str
    dim: int
    verdict: str
    rule_of: bytearray        # per assignment: 0 unforced, 1 A, 2 C, 3 B
    ev_of: array              # per assignment (typecode I): index into the rule's table
    counts: dict[str, int]
    unforced: list[int]
    stats: dict[str, int]
    wall_time: float
    ctx: RuleContext

    def evidence(self, assignment: int):
        """The evidence that forced an assignment, None if none did.
        Raises ValueError for an assignment outside [0, 2^dim), and for a
        rule code other than 0-3 or an index outside its rule's table."""
        if not 0 <= assignment < 1 << self.dim:
            raise ValueError(f"assignment {assignment} is outside [0, 2^{self.dim})")
        rule = self.rule_of[assignment]
        return self.ctx.evidence(rule, self.ev_of[assignment]) if rule else None

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


def certify(
    g: Graph,
    rules: str = "ABC",
    limits: Limits = DEFAULT_LIMITS,
) -> Certificate:
    """Sweep all 2^dim assignments, attaching evidence in A, C, B order."""
    rules = parse_rules(rules)
    t0 = time.perf_counter()
    ctx = rule_context(g, limits)
    sweeper = _Sweeper(ctx, rules)
    total = 1 << ctx.dim
    rule_of = bytearray(total)
    ev_of = array("I", [0]) * total
    examined = [0, 0]
    for win in range(1 << (ctx.dim - sweeper.w)):
        x = sweeper.sweep(win, rule_of, ev_of)
        examined = [max(pair) for pair in zip(examined, x)]

    unforced = []
    v = rule_of.find(0)
    while v >= 0:
        unforced.append(v)
        v = rule_of.find(0, v + 1)
    counts = {"A": rule_of.count(1), "C": rule_of.count(2), "B": rule_of.count(3)}
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

# the verifier checks windows of 2^_VERIFY_BITS assignments; the sweep's
# _WINDOW_BITS is not shared
_VERIFY_BITS = 16
# _DIGIT[k] maps a byte to the digit 1 when its bit k is set, else to 0:
# runs of 2^k zeros and 2^k ones
_DIGIT = tuple((b"0" * (1 << k) + b"1" * (1 << k)) * (128 >> k) for k in range(8))
# the two bits of a rule code, and the bytes above 3, which are no rule code
_CODE_DIGITS = (_DIGIT[0], _DIGIT[1], b"0" * 4 + b"1" * 252)


def _planes(data: bytes, tables: Iterable[bytes]) -> list[int]:
    """One bitmap per table: bit u is the digit the table maps data[u] to."""
    planes = []
    for table in tables:
        digits = data.translate(table)
        planes.append(int(digits[::-1], 2) if b"1" in digits else 0)
    return planes


def _index_planes(idxs: array) -> list[int]:
    """The bit planes of idxs: bit u of plane j is bit j of idxs[u], up to
    the highest plane that is not 0.  Each byte lane of the array gives
    eight planes, a lane of zeros eight zeros."""
    raw, size = idxs.tobytes(), idxs.itemsize
    planes: list[int] = []
    for k in range(size):
        lane = raw[k if sys.byteorder == "little" else size - 1 - k::size]
        planes += _planes(lane, _DIGIT) if lane.strip(b"\0") else [0] * 8
    while planes and not planes[-1]:
        planes.pop()
    return planes


def _parity_bitmap(c: int, w: int) -> int:
    """Bitmap of the u < 2^w at which u & c has odd parity, by doubling:
    the upper half of each span is its lower half, flipped when c has the
    span's bit."""
    bm = 0
    for i in range(w):
        span = 1 << i
        bm |= (bm ^ ((1 << span) - 1) if c >> i & 1 else bm) << span
    return bm


class _IndependentEvaluator:
    """Decomposes cycles over the fundamental basis with fresh Gaussian
    elimination (no signature shortcut)."""

    def __init__(self, host: Graph):
        self.piv: dict[int, tuple[int, int]] = {}  # leading edge bit -> (mask, coeffs)
        for i, b in enumerate(cycle_space(host).basis):
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


def _lifted_vectors(ev: _IndependentEvaluator, model: MinorModel,
                    pmasks: Iterable[int]) -> tuple[int, ...]:
    """Coefficient vectors of the lifts of the pattern cycles pmasks.

    Each lift must contract through the branch sets onto its pattern cycle:
    every host edge lies in one branch tree or is the mapped edge of a
    pattern edge of the cycle, and every pattern edge of the cycle is hit.
    """
    host, pattern = model.host, model.pattern
    owner = {v: p for p, bs in enumerate(model.branch_sets) for v in bs}
    trees = [{norm_edge(*e) for e in tree} for tree in model.branch_trees]
    vectors = []
    for pmask in pmasks:
        hmask = lift(model, pmask)
        hit = 0
        for u, v in host.edges_of_mask(hmask):
            p, q = owner.get(u), owner.get(v)
            if p is None or q is None:
                raise ModelInvalid("lifted cycle leaves the branch sets")
            if p == q:
                if (u, v) not in trees[p]:
                    raise ModelInvalid("lifted cycle leaves a branch tree")
                continue
            k = pattern.edge_index.get(norm_edge(p, q))
            if k is None or norm_edge(*model.edge_map[k]) != (u, v):
                raise ModelInvalid("lifted cycle joins branch sets off the mapped edges")
            hit |= 1 << k
        if hit != pmask:
            raise ModelInvalid("lifted cycle does not contract onto its pattern cycle")
        vectors.append(ev.decompose(hmask))
    return tuple(vectors)


# the patterns are the family members, so each code is computed once
_pattern_code = lru_cache(maxsize=16)(canonical_form)


def _evidence_claim(g: Graph, ev: _IndependentEvaluator,
                    evidence) -> tuple[tuple[int, ...], int, str]:
    """Check one piece of evidence and return what it claims of every
    assignment that cites it: (coefficient vectors, wanted parity, message).

    Rule A: two simple vertex-disjoint cycles, both 1-homologous.  Rules C
    and B: a valid model of K6 (C) or of the named Petersen-family member
    (B) whose lifted pattern cycles are 0-homologous: the four triangles
    of the quad (C), or a cycle basis of the member minus the apex (B).
    """
    if isinstance(evidence, RuleAEvidence):
        c1, c2 = evidence.cycle1, evidence.cycle2
        if not (_is_simple_cycle(g, c1) and _is_simple_cycle(g, c2)):
            raise ModelInvalid("rule A evidence is not a pair of simple cycles")
        if cycle_vertices(g, c1) & cycle_vertices(g, c2):
            raise ModelInvalid("rule A cycles share a vertex")
        vectors = (ev.decompose(c1), ev.decompose(c2))
        return vectors, 1, "rule A cycles not both 1-homologous"
    model = evidence.model
    validate_model(model)
    if model.host != g:
        raise ModelInvalid("model host differs from the certified graph")
    member = model.pattern
    if isinstance(evidence, RuleCEvidence):
        quad = evidence.quad
        if _pattern_code(member) != _pattern_code(_K6):
            raise ModelInvalid("rule C pattern is not K6")
        if len(set(quad) & set(range(6))) != 4:
            raise ModelInvalid("rule C quad must name four branch vertices")
        pmasks = [
            member.edge_mask([(a, b), (a, c), (b, c)])
            for a, b, c in itertools.combinations(quad, 3)
        ]
        return _lifted_vectors(ev, model, pmasks), 0, "rule C triangle not 0-homologous"
    from .families import petersen_family

    name, apex = evidence.member, evidence.apex
    expected = petersen_family().members.get(name)
    if expected is None or _pattern_code(member) != _pattern_code(expected):
        raise ModelInvalid(f"rule B pattern is not {name}")
    if not (0 <= apex < member.n):
        raise ModelInvalid("rule B apex outside pattern")
    sub = member.delete_vertex(apex)
    pmasks = [
        member.edge_mask(
            (a + (a >= apex), b + (b >= apex)) for a, b in sub.edges_of_mask(bmask)
        )
        for bmask in cycle_space(sub).basis
    ]
    return _lifted_vectors(ev, model, pmasks), 0, "rule B basis cycle not 0-homologous"


def verify_certificate(cert: Certificate) -> int:
    """Re-check every forced assignment against its evidence; return the
    number checked.

    Each distinct piece of evidence, as `Certificate.evidence` gives it, is
    checked once by `_evidence_claim`: its structure (simple disjoint
    cycles; a valid model of the right pattern, whose lifted cycles
    contract onto their pattern cycles) and the coefficient vectors of its
    cycles, found by fresh elimination over the fundamental basis (no
    signature shortcut).  Every assignment citing it must then give each
    vector the wanted parity.

    Assignments are checked one window of 2^`_VERIFY_BITS` at a time.  The
    window's rule codes and evidence indices become bit planes (bit u of a
    plane is one bit of the key of assignment u), and the assignments
    citing the key of the lowest one left are the AND of its planes and
    complements; they are peeled off together and checked against the
    key's claim by parity bitmaps from `_parity_bitmap`.

    Raises ModelInvalid on a failure, and for a rule code other than 0-3
    or an index outside its rule's table.
    """
    dim = cert.dim
    w = min(dim, _VERIFY_BITS)
    width = 1 << w
    full = (1 << width) - 1
    g, ctx, rule_of, ev_of = cert.graph, cert.ctx, cert.rule_of, cert.ev_of
    ev = _IndependentEvaluator(g)
    claims: dict[tuple[int, int], tuple[tuple[int, ...], int, str]] = {}
    checked = 0
    for win in range(1 << (dim - w)):
        start = win << w
        *code_planes, bad = _planes(rule_of[start:start + width], _CODE_DIGITS)
        if bad:
            v = start + (bad & -bad).bit_length() - 1
            raise ModelInvalid(f"rule code {rule_of[v]} is not 1, 2 or 3 at {v}")
        planes = code_planes + _index_planes(ev_of[start:start + width])
        complements = [p ^ full for p in planes]
        left = code_planes[0] | code_planes[1]
        while left:
            v = start + (left & -left).bit_length() - 1
            key = (rule_of[v], ev_of[v])
            # bit b of the key selects plane b where set, its complement where not
            group, bits = left, key[0] | key[1] << 2
            for plane, complement in zip(planes, complements):
                group &= plane if bits & 1 else complement
                bits >>= 1
            left ^= group
            claim = claims.get(key)
            if claim is None:
                if not ctx.has_entry(*key):
                    raise ModelInvalid(f"rule code {key[0]} has no evidence {key[1]} at {v}")
                claim = claims[key] = _evidence_claim(g, ev, cert.evidence(v))
            vectors, want, message = claim
            for c in vectors:
                # the assignments of the group at which c has the wrong parity
                wrong = _parity_bitmap(c, w)
                if ((c >> w & win).bit_count() ^ want) & 1:
                    wrong ^= full
                wrong &= group
                if wrong:
                    raise ModelInvalid(f"{message} at {start + (wrong & -wrong).bit_length() - 1}")
            checked += group.bit_count()
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
    limits: Limits = DEFAULT_LIMITS,
) -> MinimalityReport:
    """Certify both one-step minors for one representative per edge orbit.

    Each minor's context learns that its host is a minor of g before it
    is certified.  A Petersen-family member that is no minor of g is then
    proved absent once, on g, when a minor's sweep first reads its models,
    and not searched again on any minor.  The streams skipped that way
    are empty anyway, so the entries are those of `certify`.
    """
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
            rule_context(minor, limits).minor_of.add(g)
            cert = certify(minor, rules=rules, limits=limits)
            report.entries.append(
                MinimalityEntry(e, op_name, cert.verdict, len(cert.unforced))
            )
    return report
