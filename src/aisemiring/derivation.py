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
from operator import itemgetter

from .algebra import LineSyntaxError
from .terms import (
    Substitution,
    Term,
    TermKey,
    TermSyntaxError,
    Variable,
    check_variable,
    content,
    parse_term,
    parse_word,
    print_term,
    term_key,
    wrap,
)

Identity = tuple[Term, Term]


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
class DerivationVerdict:
    ok: bool
    failed_step: int | None = None
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


def check_step(t: Term, t_next: Term, step: DerivationStep) -> DerivationVerdict:
    """Verify that the step's witnesses rewrite t into t_next exactly."""
    src, dst = step.oriented()
    for side, rule_side, expected in (("left", src, t), ("right", dst, t_next)):
        got = wrap(step.subst(rule_side), step.left, step.right, step.remainder)
        if got != expected:
            return DerivationVerdict(
                False, None,
                f"{side} side composes to {print_term(got)}, expected {print_term(expected)}",
            )
    return DerivationVerdict(True)


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
        if step.rule not in d.sigma:
            s, sp = map(print_term, step.rule)
            return DerivationVerdict(False, i, f"rule {s} = {sp} is not in the identity set")
        verdict = check_step(d.chain[i], d.chain[i + 1], step)
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
        return self._admits_words([w.letters for w in t.words])

    def _admits_words(self, words) -> bool:
        """``admits`` on a term given as a collection of letter tuples."""
        return len(words) <= self.max_summands and max(map(len, words)) <= self.max_word_len


@dataclass
class SearchResult:
    """Outcome of :func:`search_derivation`, with its effort counters:
    ``explored`` distinct terms reached, ``pruned`` rewrites dropped for
    exceeding the bounds, and ``frontier_sizes[i]`` terms at distance i from
    the claim's left side that the search expanded."""

    derivation: Derivation | None
    reason: str
    explored: int
    pruned: int = 0
    frontier_sizes: tuple[int, ...] = ()

    @property
    def found(self) -> bool:
        return self.derivation is not None


Letters = tuple[Variable, ...]
Binding = dict[Variable, Letters]


def _match_word(pattern: Letters, seg: Letters, binding: Binding,
                max_img: int) -> list[Binding]:
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
    out: list[Binding] = []
    limit = min(len(seg) - len(rest), max_img)
    for l in range(1, limit + 1):
        b2 = dict(binding)
        b2[v] = seg[:l]
        out.extend(_match_word(rest, seg[l:], b2, max_img))
    return out


def _match_term(src_words: list[Letters], t_words: list[Letters], max_img: int):
    """Yield every (binding, left, right) with every word of src (longest
    first) mapping into a word of t under the shared contexts. Bindings send
    variables to single words."""
    # no result repeats: _match_word consumes the whole segment, so a
    # binding fixes the image of each source word, and with the contexts
    # its host word (left + image + right) and span
    anchor, others = src_words[0], src_words[1:]
    for ls in t_words:
        for i in range(len(ls)):
            for j in range(i + 1, len(ls) + 1):
                left, right = ls[:i], ls[j:]
                for b0 in _match_word(anchor, ls[i:j], {}, max_img):
                    candidates = [b0]
                    for w in others:
                        extended = []
                        for cand in candidates:
                            for ly in t_words:
                                if len(ly) <= len(left) + len(right):
                                    continue
                                if ly[: len(left)] != left:
                                    continue
                                if right and ly[len(ly) - len(right):] != right:
                                    continue
                                seg = ly[len(left): len(ly) - len(right)]
                                extended.extend(_match_word(w, seg, cand, max_img))
                        candidates = extended
                        if not candidates:
                            break
                    for cand in candidates:
                        yield cand, left, right


#: most words a rewritten image may have for every subset of it to be tried
_SUBSET_CAP = 3


def _subsets(words: frozenset[Letters]):
    """Subsets of a small word set (all of them if small, else just the two
    extremes); the remainder may keep any part of the rewritten image."""
    ws = sorted(words, key=lambda letters: (len(letters), letters))
    if len(ws) <= _SUBSET_CAP:
        for r in range(len(ws) + 1):
            yield from (frozenset(c) for c in itertools.combinations(ws, r))
    else:
        yield frozenset()
        yield frozenset(ws)


def _image(word: Letters, binding: Binding) -> Letters:
    out: Letters = ()
    for x in word:
        out += binding[x]
    return out


def _orientations(sigma: list[Identity]):
    """Each rule in both orientations as (rule, forward, src words longest
    first, dst words, variables only dst has), skipping an orientation with
    more than two such variables: too many to instantiate blindly."""
    out = []
    for rule in sigma:
        for forward in (True, False):
            src, dst = rule if forward else (rule[1], rule[0])
            unbound = sorted(content(dst) - content(src))
            if len(unbound) > 2:
                continue
            src_words = sorted((w.letters for w in src.words),
                               key=lambda letters: (-len(letters), letters))
            out.append((rule, forward, src_words,
                        [w.letters for w in dst.words], unbound))
    return out


def _rewrites(rules, t: TermKey, bounds: SearchBounds, image_pool: list[Variable]):
    """Every one-step rewrite of the term with sort key ``t``, on raw letter
    tuples, in a fixed order: ``(t_next, witnesses)`` for each rewrite
    inside the bounds, where ``t_next`` is the next term as a frozenset of
    letter tuples and ``witnesses`` is ``(rule, forward, left, right, kept,
    binding)``, and None for each rewrite pruned by the bounds. Rewrites
    that give back t are skipped.

    ``rules`` comes from :func:`_orientations`; variables of the target
    side that the match leaves unbound are instantiated from
    ``image_pool``.
    """
    t_words = [letters for _, letters in t]
    t_set = frozenset(t_words)
    for rule, forward, src_words, dst_words, unbound in rules:
        guesses = list(itertools.product(image_pool, repeat=len(unbound)))
        for binding, left, right in _match_term(src_words, t_words,
                                                bounds.max_subst_image):
            base = frozenset(left + _image(w, binding) + right for w in src_words)
            rest = t_set - base
            images = []
            for guess in guesses:
                full = dict(binding)
                for v, img in zip(unbound, guess):
                    full[v] = (img,)
                images.append(
                    (full, frozenset(left + _image(w, full) + right for w in dst_words))
                )
            for extra in _subsets(base):
                kept = rest | extra
                for full, image in images:
                    t_next = image | kept
                    if t_next == t_set:
                        continue
                    if not bounds._admits_words(t_next):
                        yield None
                        continue
                    yield t_next, (rule, forward, left, right, kept, full)


def _step(rule: Identity, forward: bool, left: Letters, right: Letters,
          kept: frozenset[Letters], binding: Binding) -> DerivationStep:
    """The DerivationStep for the witnesses of a rewrite."""
    return DerivationStep(
        rule=rule,
        forward=forward,
        left=left,
        right=right,
        remainder=Term._of_letters(kept) if kept else None,
        subst=Substitution._of(
            {v: Term._of_letters((img,)) for v, img in binding.items()}
        ),
    )


def sorted_rewrites(sigma: list[Identity], t: Term, bounds: SearchBounds,
                    image_pool: list[Variable]):
    """The one-step rewrites of t as (sort key of the next term, witnesses),
    one per rule application, plus the number pruned for exceeding the
    bounds.

    Each rule is tried in both orientations; variables of the target side
    that the match leaves unbound are instantiated from ``image_pool``.
    The list is sorted by key, stably, so the result is deterministic and
    a term reached in several ways appears once per way. Turning a key into
    a Term and its witnesses into a DerivationStep is left to the caller,
    for the rewrites it keeps."""
    found = []
    pruned = 0
    for rewrite in _rewrites(_orientations(sigma), t.sort_key(), bounds, image_pool):
        if rewrite is None:
            pruned += 1
        else:
            t_next, witnesses = rewrite
            found.append((term_key(t_next), witnesses))
    found.sort(key=itemgetter(0))
    return found, pruned


def search_derivation(sigma: list[Identity], claim: Identity,
                      bounds: SearchBounds = SearchBounds()) -> SearchResult:
    """Breadth-first search for a derivation of the claim within bounds.

    A returned derivation always passes :func:`check_derivation`; exhaustion
    only means nothing was found inside the bounds, never non-derivability.
    Substitution images are searched over single words (at most
    max_subst_image letters each).

    Terms are visited in the order of the sorted :func:`sorted_rewrites` lists,
    each reached by the first rewrite that gives it. The search keeps terms
    as raw letter tuples and builds Terms and DerivationSteps only for the
    chain it returns.
    """
    if min(bounds.max_chain, bounds.max_word_len, bounds.max_summands,
           bounds.max_subst_image) < 1:
        raise ValueError("all search bounds must be positive")
    start, goal = claim
    if start == goal:
        return SearchResult(Derivation(list(sigma), [start], []), "found", 1)
    if not bounds.admits(start):
        return SearchResult(None, "exhausted: claim's left side exceeds bounds", 0)
    image_pool = sorted(content(start) | content(goal)) or ["x"]
    rules = _orientations(sigma)
    goal_set = frozenset(w.letters for w in goal.words)
    # reached term -> (sort key of the term it was reached from, witnesses)
    back: dict[frozenset[Letters], tuple[TermKey, tuple] | None] = {
        frozenset(w.letters for w in start.words): None
    }
    frontier = [start.sort_key()]
    sizes: list[int] = []
    pruned = 0
    for _ in range(bounds.max_chain - 1):
        sizes.append(len(frontier))
        nxt: list[TermKey] = []
        for t in frontier:
            first: dict[frozenset[Letters], tuple] = {}
            for rewrite in _rewrites(rules, t, bounds, image_pool):
                if rewrite is None:
                    pruned += 1
                    continue
                t_next, witnesses = rewrite
                if t_next not in first and t_next not in back:
                    first[t_next] = witnesses
            for key, t_next in sorted((term_key(t_next), t_next) for t_next in first):
                back[t_next] = (t, first[t_next])
                if t_next == goal_set:
                    return SearchResult(_chain_to(sigma, back, key), "found",
                                        len(back), pruned, tuple(sizes))
                nxt.append(key)
        if not nxt:
            reason = "exhausted: no unexplored terms within bounds"
            if pruned:
                reason += f" ({pruned} rewrites pruned by bound overflow)"
            return SearchResult(None, reason, len(back), pruned, tuple(sizes))
        nxt.sort()
        frontier = nxt
    return SearchResult(
        None, f"exhausted: chain bound {bounds.max_chain} reached", len(back),
        pruned, tuple(sizes),
    )


def _chain_to(sigma: list[Identity], back, key: TermKey) -> Derivation:
    """The derivation from the search's start to the term with sort key
    ``key``, read off the search's back pointers."""
    chain: list[Term] = []
    steps: list[DerivationStep] = []
    while True:
        chain.append(Term._of_letters(letters for _, letters in key))
        entry = back[frozenset(letters for _, letters in key)]
        if entry is None:
            break
        key, witnesses = entry
        steps.append(_step(*witnesses))
    chain.reverse()
    steps.reverse()
    return Derivation(list(sigma), chain, steps)


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
# lists variable := term bindings. '-' (or an omitted field) means empty;
# an unknown or repeated field is a syntax error.


class DerivationSyntaxError(LineSyntaxError):
    """Derivation file text does not match the expected format."""


def _parse_at(parse, text: str, lineno: int):
    """parse(text), with a TermSyntaxError reported at line ``lineno``."""
    try:
        return parse(text)
    except TermSyntaxError as exc:
        raise DerivationSyntaxError(str(exc), lineno) from None


def parse_derivation(text: str) -> Derivation:
    sigma: list[Identity] = []
    chain: list[Term] = []
    raw_steps: list[tuple[int, str]] = []
    section = None
    last = None  # the last content line, where errors at the end are reported
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        last = lineno
        if line in ("sigma:", "chain:"):
            section = line[:-1]
            continue
        if line.startswith("step:"):
            raw_steps.append((lineno, line[len("step:"):]))
            continue
        if section == "sigma":
            if "=" not in line:
                raise DerivationSyntaxError("identity needs '='", lineno)
            sigma.append(tuple(_parse_at(parse_term, side, lineno)
                               for side in line.split("=", 1)))
        elif section == "chain":
            chain.append(_parse_at(parse_term, line, lineno))
        else:
            raise DerivationSyntaxError(f"unexpected content {line!r}", lineno)
    if not chain:
        raise DerivationSyntaxError("no chain section", last)
    if len(raw_steps) != len(chain) - 1:
        raise DerivationSyntaxError(
            f"{len(raw_steps)} step lines for a chain of {len(chain)} terms", last)
    steps = [_parse_step(body, lineno, sigma) for lineno, body in raw_steps]
    return Derivation(sigma, chain, steps)


def _parse_step(body: str, lineno: int, sigma: list[Identity]) -> DerivationStep:
    fields: dict[str, str] = {}
    for piece in body.split(";"):
        piece = piece.strip()
        if not piece:
            continue
        key, _, value = piece.partition(" ")
        if key not in ("rule", "left", "right", "rest", "sub"):
            raise DerivationSyntaxError(f"unknown step field {key!r}", lineno)
        if key in fields:
            raise DerivationSyntaxError(f"repeated step field {key!r}", lineno)
        fields[key] = value.strip()
    head = fields.get("rule")
    if head is None:
        raise DerivationSyntaxError("step needs a 'rule N forward|backward' field", lineno)
    parts = head.split()
    if len(parts) != 2 or parts[1] not in ("forward", "backward"):
        raise DerivationSyntaxError("rule field must be 'rule <index> forward|backward'", lineno)
    try:
        idx = int(parts[0])
    except ValueError:
        raise DerivationSyntaxError(f"bad rule index {parts[0]!r}", lineno) from None
    if not 1 <= idx <= len(sigma):
        raise DerivationSyntaxError(f"rule index {idx} out of range", lineno)

    # '-' or an empty value means the field is absent
    given = {key: value for key, value in fields.items() if value not in ("-", "")}
    remainder = _parse_at(parse_term, given["rest"], lineno) if "rest" in given else None
    mapping: dict[Variable, Term] = {}
    for item in given["sub"].split(",") if "sub" in given else ():
        if ":=" not in item:
            raise DerivationSyntaxError(f"binding {item.strip()!r} needs ':='", lineno)
        var, image = item.split(":=", 1)
        var = var.strip()
        if var in mapping:
            raise DerivationSyntaxError(f"duplicate binding for {var}", lineno)
        mapping[_parse_at(check_variable, var, lineno)] = _parse_at(parse_term, image, lineno)
    return DerivationStep(
        rule=sigma[idx - 1],
        forward=parts[1] == "forward",
        left=_parse_at(parse_word, given["left"], lineno).letters if "left" in given else (),
        right=_parse_at(parse_word, given["right"], lineno).letters if "right" in given else (),
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
