"""Checking and searching equational-logic derivations.

A derivation is a chain of terms where each link rewrites one rule instance
inside word contexts and an additive remainder: t = left.phi(s).right + r
steps to left.phi(s').right + r for a rule s ~ s' usable in either
orientation. The checker demands all witnesses explicitly and never
searches; the searcher produces checker-certified chains by bounded
breadth-first exploration.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .terms import (
    Substitution,
    Term,
    TermSyntaxError,
    Variable,
    Word,
    content,
    parse_term,
    parse_word,
    print_term,
    wrap,
)

Identity = tuple[Term, Term]


class DerivationRuleError(ValueError):
    """Step uses a rule that is not in the ambient identity set."""


@dataclass(eq=True)
class DerivationStep:
    """Explicit witnesses for one rewrite: rule, orientation, contexts,
    remainder, and the substitution."""

    rule: Identity
    forward: bool
    left: tuple[Variable, ...] = ()
    right: tuple[Variable, ...] = ()
    remainder: Term | None = None
    subst: Substitution = field(default_factory=Substitution)

    def oriented(self) -> tuple[Term, Term]:
        s, sp = self.rule
        return (s, sp) if self.forward else (sp, s)


@dataclass(eq=True)
class Derivation:
    sigma: list[Identity]
    chain: list[Term]
    steps: list[DerivationStep]


@dataclass(frozen=True)
class StepVerdict:
    ok: bool
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class DerivationVerdict:
    ok: bool
    failed_step: int | None = None
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


def check_step(t: Term, t_next: Term, step: DerivationStep,
               sigma: list[Identity] | None = None) -> StepVerdict:
    """Verify that the step's witnesses rewrite t into t_next exactly."""
    if sigma is not None and step.rule not in sigma:
        raise DerivationRuleError(
            f"rule {print_term(step.rule[0])} = {print_term(step.rule[1])} "
            "is not in the identity set"
        )
    src, dst = step.oriented()
    lhs = wrap(step.subst(src), step.left, step.right, step.remainder)
    if lhs != t:
        return StepVerdict(
            False, f"left side composes to {print_term(lhs)}, expected {print_term(t)}"
        )
    rhs = wrap(step.subst(dst), step.left, step.right, step.remainder)
    if rhs != t_next:
        return StepVerdict(
            False,
            f"right side composes to {print_term(rhs)}, expected {print_term(t_next)}",
        )
    return StepVerdict(True)


def check_derivation(d: Derivation, claim: Identity) -> DerivationVerdict:
    """Verify a whole chain against a claimed identity."""
    if not d.chain:
        return DerivationVerdict(False, None, "empty chain")
    if len(d.steps) != len(d.chain) - 1:
        return DerivationVerdict(
            False, None,
            f"{len(d.steps)} steps cannot justify a chain of {len(d.chain)} terms",
        )
    if d.chain[0] != claim[0]:
        return DerivationVerdict(False, None, "chain does not start at the claim's left side")
    if d.chain[-1] != claim[1]:
        return DerivationVerdict(False, None, "chain does not end at the claim's right side")
    for i, step in enumerate(d.steps):
        try:
            verdict = check_step(d.chain[i], d.chain[i + 1], step, d.sigma)
        except DerivationRuleError as exc:
            return DerivationVerdict(False, i, str(exc))
        if not verdict:
            return DerivationVerdict(False, i, verdict.reason)
    return DerivationVerdict(True)


# ---------------------------------------------------------------------------
# bounded search


@dataclass(frozen=True)
class SearchBounds:
    max_chain: int = 6
    max_word_len: int = 6
    max_summands: int = 8
    max_subst_image: int = 3

    def admits(self, t: Term) -> bool:
        return len(t.words) <= self.max_summands and all(
            len(w) <= self.max_word_len for w in t.words
        )


@dataclass
class SearchResult:
    derivation: Derivation | None
    reason: str
    explored: int

    @property
    def found(self) -> bool:
        return self.derivation is not None


def _match_word(pattern: tuple[Variable, ...], seg: tuple[Variable, ...],
                binding: dict[Variable, tuple[Variable, ...]],
                max_img: int) -> list[dict[Variable, tuple[Variable, ...]]]:
    """All ways to split seg into per-variable images matching the pattern
    (consistent with and extending the given binding)."""
    if not pattern:
        return [dict(binding)] if not seg else []
    v, rest = pattern[0], pattern[1:]
    bound = binding.get(v)
    if bound is not None:
        if seg[: len(bound)] == bound:
            return _match_word(rest, seg[len(bound):], binding, max_img)
        return []
    out: list[dict[Variable, tuple[Variable, ...]]] = []
    limit = min(len(seg) - len(rest), max_img)
    for l in range(1, limit + 1):
        b2 = dict(binding)
        b2[v] = seg[:l]
        out.extend(_match_word(rest, seg[l:], b2, max_img))
    return out


def _match_term(src: Term, t: Term, max_img: int):
    """All (binding, left, right) with every word of src mapping into t under
    the shared contexts. Bindings send variables to single words."""
    words = sorted(src.words, key=lambda w: (-len(w), w.letters))
    anchor, others = words[0], words[1:]
    results = []
    seen = set()
    for x in t.words:
        ls = x.letters
        for i in range(len(ls)):
            for j in range(i + 1, len(ls) + 1):
                left, right = ls[:i], ls[j:]
                for b0 in _match_word(anchor.letters, ls[i:j], {}, max_img):
                    candidates = [b0]
                    for w in others:
                        extended = []
                        for cand in candidates:
                            for y in t.words:
                                ly = y.letters
                                if len(ly) <= len(left) + len(right):
                                    continue
                                if ly[: len(left)] != left:
                                    continue
                                if right and ly[len(ly) - len(right):] != right:
                                    continue
                                seg = ly[len(left): len(ly) - len(right)]
                                extended.extend(
                                    _match_word(w.letters, seg, cand, max_img)
                                )
                        candidates = _dedupe_bindings(extended)
                        if not candidates:
                            break
                    for cand in candidates:
                        key = (tuple(sorted(cand.items())), left, right)
                        if key not in seen:
                            seen.add(key)
                            results.append((cand, left, right))
    return results


def _dedupe_bindings(bindings):
    seen = set()
    out = []
    for b in bindings:
        key = tuple(sorted(b.items()))
        if key not in seen:
            seen.add(key)
            out.append(b)
    return out


def _subsets(words: frozenset[Word], cap: int = 3):
    """Subsets of a small word set (all of them if small, else just the two
    extremes); the remainder may keep any part of the rewritten image."""
    ws = sorted(words, key=Word.sort_key)
    if len(ws) <= cap:
        for r in range(len(ws) + 1):
            yield from (frozenset(c) for c in itertools.combinations(ws, r))
    else:
        yield frozenset()
        yield frozenset(ws)


def neighbors(sigma: list[Identity], t: Term, bounds: SearchBounds,
              image_pool: list[Variable]):
    """One-step rewrites of t: every (next_term, step) one rule application
    away, plus the number of rewrites pruned for exceeding the bounds.

    Each rule is tried in both orientations; variables of the target side
    that the match leaves unbound are instantiated from ``image_pool``.
    The list is sorted by term, so the result is deterministic.
    """
    out: list[tuple[Term, DerivationStep]] = []
    pruned = 0
    for rule in sigma:
        for forward in (True, False):
            src, dst = rule if forward else (rule[1], rule[0])
            unbound = sorted(content(dst) - content(src))
            if len(unbound) > 2:
                continue  # too many free variables to instantiate blindly
            for binding, left, right in _match_term(src, t, bounds.max_subst_image):
                phi = Substitution(
                    {v: Term([Word(img)]) for v, img in binding.items()}
                )
                base = frozenset(
                    Word(left + w.letters + right) for w in phi(src).words
                )
                rest = frozenset(t.words) - base
                for extra in _subsets(base):
                    kept = rest | extra
                    for images in itertools.product(image_pool, repeat=len(unbound)):
                        full = dict(binding)
                        for v, img in zip(unbound, images):
                            full[v] = (img,)
                        phi_full = Substitution(
                            {v: Term([Word(img)]) for v, img in full.items()}
                        )
                        t_next = wrap(
                            phi_full(dst), left, right,
                            Term(kept) if kept else None,
                        )
                        if t_next == t:
                            continue
                        if not bounds.admits(t_next):
                            pruned += 1
                            continue
                        step = DerivationStep(
                            rule=rule,
                            forward=forward,
                            left=left,
                            right=right,
                            remainder=Term(kept) if kept else None,
                            subst=phi_full,
                        )
                        out.append((t_next, step))
    out.sort(key=lambda pair: pair[0])
    return out, pruned


def search_derivation(sigma: list[Identity], claim: Identity,
                      bounds: SearchBounds = SearchBounds()) -> SearchResult:
    """Breadth-first search for a derivation of the claim within bounds.

    A returned derivation always passes :func:`check_derivation`; exhaustion
    only means nothing was found inside the bounds, never non-derivability.
    Substitution images are searched over single words (at most
    max_subst_image letters each).
    """
    if min(bounds.max_chain, bounds.max_word_len, bounds.max_summands,
           bounds.max_subst_image) < 1:
        raise ValueError("all search bounds must be positive")
    start, goal = claim
    if start == goal:
        return SearchResult(Derivation(list(sigma), [start], []), "found", 1)
    image_pool = sorted(content(start) | content(goal)) or ["x"]
    back: dict[Term, tuple[Term, DerivationStep] | None] = {start: None}
    frontier = [start]
    total_pruned = 0
    if not bounds.admits(start):
        return SearchResult(None, "exhausted: claim's left side exceeds bounds", 0)
    for _ in range(bounds.max_chain - 1):
        nxt: list[Term] = []
        for t in frontier:
            options, pruned = neighbors(sigma, t, bounds, image_pool)
            total_pruned += pruned
            for t2, step in options:
                if t2 in back:
                    continue
                back[t2] = (t, step)
                if t2 == goal:
                    chain = [t2]
                    steps: list[DerivationStep] = []
                    cur = t2
                    while back[cur] is not None:
                        prev, st = back[cur]
                        chain.append(prev)
                        steps.append(st)
                        cur = prev
                    chain.reverse()
                    steps.reverse()
                    return SearchResult(
                        Derivation(list(sigma), chain, steps), "found", len(back)
                    )
                nxt.append(t2)
        if not nxt:
            reason = "exhausted: no unexplored terms within bounds"
            if total_pruned:
                reason += f" ({total_pruned} rewrites pruned by bound overflow)"
            return SearchResult(None, reason, len(back))
        nxt.sort()
        frontier = nxt
    return SearchResult(
        None, f"exhausted: chain bound {bounds.max_chain} reached", len(back)
    )


# ---------------------------------------------------------------------------
# derivation file format
#
#   sigma:
#   xy = yx
#   chain:
#   xy + z
#   yx + z
#   step: rule 1 forward; left -; right -; rest z; sub x := x, y := y
#
# '#' starts a comment. Rule indices are 1-based into the sigma section;
# 'left'/'right' are context words, 'rest' is the remainder term, 'sub'
# lists variable := term bindings. '-' (or an omitted field) means empty.


class DerivationSyntaxError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


def parse_derivation(text: str) -> Derivation:
    sigma: list[Identity] = []
    chain: list[Term] = []
    raw_steps: list[tuple[int, str]] = []
    section = None
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "sigma:":
            section = "sigma"
            continue
        if line == "chain:":
            section = "chain"
            continue
        if line.startswith("step:"):
            raw_steps.append((lineno, line[len("step:"):]))
            continue
        if section == "sigma":
            if "=" not in line:
                raise DerivationSyntaxError("identity needs '='", lineno)
            lhs, rhs = line.split("=", 1)
            try:
                sigma.append((parse_term(lhs), parse_term(rhs)))
            except TermSyntaxError as exc:
                raise DerivationSyntaxError(str(exc), lineno) from None
        elif section == "chain":
            try:
                chain.append(parse_term(line))
            except TermSyntaxError as exc:
                raise DerivationSyntaxError(str(exc), lineno) from None
        else:
            raise DerivationSyntaxError(f"unexpected content {line!r}", lineno)
    if not chain:
        raise DerivationSyntaxError("no chain section")
    if len(raw_steps) != len(chain) - 1:
        raise DerivationSyntaxError(
            f"{len(raw_steps)} step lines for a chain of {len(chain)} terms"
        )
    steps = [_parse_step(body, lineno, sigma) for lineno, body in raw_steps]
    return Derivation(sigma, chain, steps)


def _parse_step(body: str, lineno: int, sigma: list[Identity]) -> DerivationStep:
    fields: dict[str, str] = {}
    head = None
    for piece in body.split(";"):
        piece = piece.strip()
        if not piece:
            continue
        key, _, value = piece.partition(" ")
        if key == "rule":
            head = value.strip()
        else:
            fields[key] = value.strip()
    if head is None:
        raise DerivationSyntaxError("step needs a 'rule N forward|backward' field", lineno)
    parts = head.split()
    if len(parts) != 2 or parts[1] not in ("forward", "backward"):
        raise DerivationSyntaxError(
            "rule field must be 'rule <index> forward|backward'", lineno
        )
    try:
        idx = int(parts[0])
    except ValueError:
        raise DerivationSyntaxError(f"bad rule index {parts[0]!r}", lineno) from None
    if not 1 <= idx <= len(sigma):
        raise DerivationSyntaxError(f"rule index {idx} out of range", lineno)

    def word_field(name: str) -> tuple[Variable, ...]:
        value = fields.get(name, "-")
        if value in ("-", ""):
            return ()
        try:
            return parse_word(value).letters
        except TermSyntaxError as exc:
            raise DerivationSyntaxError(str(exc), lineno) from None

    rest_text = fields.get("rest", "-")
    remainder = None
    if rest_text not in ("-", ""):
        try:
            remainder = parse_term(rest_text)
        except TermSyntaxError as exc:
            raise DerivationSyntaxError(str(exc), lineno) from None
    mapping: dict[Variable, Term] = {}
    sub_text = fields.get("sub", "-")
    if sub_text not in ("-", ""):
        for item in sub_text.split(","):
            if ":=" not in item:
                raise DerivationSyntaxError(
                    f"binding {item.strip()!r} needs ':='", lineno
                )
            var, image = item.split(":=", 1)
            var = var.strip()
            try:
                mapping[var] = parse_term(image)
            except TermSyntaxError as exc:
                raise DerivationSyntaxError(str(exc), lineno) from None
    return DerivationStep(
        rule=sigma[idx - 1],
        forward=parts[1] == "forward",
        left=word_field("left"),
        right=word_field("right"),
        remainder=remainder,
        subst=Substitution(mapping),
    )


def format_derivation(d: Derivation) -> str:
    lines = ["sigma:"]
    lines += [f"{print_term(s)} = {print_term(sp)}" for s, sp in d.sigma]
    lines.append("chain:")
    lines += [print_term(t) for t in d.chain]
    for step in d.steps:
        idx = d.sigma.index(step.rule) + 1
        direction = "forward" if step.forward else "backward"
        left = "".join(step.left) or "-"
        right = "".join(step.right) or "-"
        rest = print_term(step.remainder) if step.remainder is not None else "-"
        if step.subst.mapping:
            sub = ", ".join(
                f"{v} := {print_term(img)}"
                for v, img in sorted(step.subst.mapping.items())
            )
        else:
            sub = "-"
        lines.append(
            f"step: rule {idx} {direction}; left {left}; right {right}; "
            f"rest {rest}; sub {sub}"
        )
    return "\n".join(lines) + "\n"
