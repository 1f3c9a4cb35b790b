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
        return (len(t.words) <= self.max_summands
                and max(len(w.letters) for w in t.words) <= self.max_word_len)


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


#: most words a rewritten image may have for every subset of it to be tried
_SUBSET_CAP = 3


def _subsets(bits: list[int]) -> list[int]:
    """The subsets of a small set of word bits, as masks: all of them, by
    size and then by position in ``bits``, if there are at most
    _SUBSET_CAP, else just the two extremes. The remainder may keep any
    part of the rewritten image."""
    if len(bits) <= _SUBSET_CAP:
        return [sum(c) for r in range(len(bits) + 1)
                for c in itertools.combinations(bits, r)]
    return [0, sum(bits)]


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


class _Match:
    """A match of the first source words of a rule orientation, in order,
    into host words under the word contexts ``left`` and ``right``; the
    bits of those host words are ``base``. ``below`` maps a host word to
    the matches that extend this one by the next source word there; once
    every source word is matched, ``rewrite`` holds what the match rewrites
    to (see :meth:`_WordTable.completed`)."""

    __slots__ = ("orientation", "binding", "left", "right", "base", "below", "rewrite")

    def __init__(self, orientation, binding: Binding, left: Letters, right: Letters,
                 base: int):
        self.orientation = orientation
        self.binding = binding
        self.left = left
        self.right = right
        self.base = base
        self.below: dict[Letters, list[_Match]] = {}
        self.rewrite = None


def _bits(mask: int):
    """Indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _WordTable:
    """The rewriting state of one call of :func:`sorted_rewrites` or
    :func:`search_derivation`, dropped when the call returns.

    Each distinct word (letter tuple) met gets one bit, so a term is an int:
    a union is ``|``, the rest of a term is ``t & ~base`` and the summand
    count is ``int.bit_count()``. ``matches[r]`` is the memo of rule
    orientation r: it maps a host word to the matches anchored in it, and
    each complete match keeps its base, the subsets of that base, and each
    image with whether its longest word fits the bounds. A rewrite then
    costs a few integer operations, and an expansion reuses what earlier
    expansions of the same call matched.
    """

    def __init__(self, sigma: list[Identity], bounds: SearchBounds,
                 image_pool: list[Variable]):
        self.rules = _orientations(sigma)
        self.bounds = bounds
        #: the one-letter images a variable only the target side has may take
        self.guesses = [(v,) for v in image_pool]
        self.bit: dict[Letters, int] = {}
        #: (length, letters) of the word at each bit index
        self.entries: list[tuple[int, Letters]] = []
        #: the bits of the words longer than bounds.max_word_len
        self.long = 0
        self.matches: list[dict[Letters, list[_Match]]] = [{} for _ in self.rules]

    def mask(self, words) -> int:
        """The term with the given words, as an int."""
        mask = 0
        for letters in words:
            bit = self.bit.get(letters)
            if bit is None:
                bit = self.bit[letters] = 1 << len(self.entries)
                self.entries.append((len(letters), letters))
                if len(letters) > self.bounds.max_word_len:
                    self.long |= bit
            mask |= bit
        return mask

    def words(self, mask: int) -> list[Letters]:
        return [self.entries[i][1] for i in _bits(mask)]

    def key(self, mask: int) -> TermKey:
        """The sort key of the term mask, as :func:`term_key` gives it."""
        entries = self.entries
        return tuple(sorted([entries[i] for i in _bits(mask)]))

    def witnesses(self, rewrite) -> tuple:
        """``(rule, forward, left, right, kept, binding)`` of a rewrite
        from :func:`_rewrites`, with ``kept`` a frozenset of letter tuples."""
        _, match, kept, binding = rewrite
        rule, forward = match.orientation[:2]
        return rule, forward, match.left, match.right, frozenset(self.words(kept)), binding

    def anchored(self, r: int, host: Letters) -> list[_Match]:
        """Matches of orientation r's longest source word into the host
        word, each at a span [i, j) of it, in order of i, then j."""
        orientation = self.rules[r]
        anchor = orientation[2][0]
        max_img = self.bounds.max_subst_image
        base = self.bit[host]
        found = []
        # each letter of the anchor takes one to max_img letters of the span
        shortest, longest = len(anchor), len(anchor) * max_img
        for i in range(len(host) - shortest + 1):
            for j in range(i + shortest, min(i + longest, len(host)) + 1):
                left, right = host[:i], host[j:]
                found.extend(_Match(orientation, b, left, right, base)
                             for b in _match_word(anchor, host[i:j], {}, max_img))
        self.matches[r][host] = found
        return found

    def extended(self, m: _Match, word: Letters, host: Letters) -> list[_Match]:
        """Matches extending m by the source word ``word`` in the host word,
        under m's contexts."""
        left, right = m.left, m.right
        found = []
        if (len(host) > len(left) + len(right) and host[: len(left)] == left
                and (not right or host[len(host) - len(right):] == right)):
            seg = host[len(left): len(host) - len(right)]
            base = m.base | self.bit[host]
            found = [_Match(m.orientation, b, left, right, base)
                     for b in _match_word(word, seg, m.binding,
                                          self.bounds.max_subst_image)]
        m.below[host] = found
        return found

    def completed(self, m: _Match):
        """``(~base, subset masks, images)`` of a complete match: the
        source side's instance in context as a mask, inverted, the subsets
        of it a remainder may keep, and ``(binding, image mask, whether its
        longest word fits)`` for each guess at the variables only the target
        side has."""
        _, _, _, dst_words, unbound = m.orientation
        left, right, binding, base = m.left, m.right, m.binding, m.base
        # a source word's instance in context is the whole host word it matched
        bits = ([1 << i for i in sorted(_bits(base), key=self.entries.__getitem__)]
                if base & (base - 1) else [base])
        images = []
        for guess in itertools.product(self.guesses, repeat=len(unbound)):
            full = binding
            if guess:
                full = binding.copy()
                full.update(zip(unbound, guess))
            image = self.mask([left + _image(w, full) + right for w in dst_words])
            images.append((full, image, not image & self.long))
        m.rewrite = (~base, _subsets(bits), images)
        return m.rewrite


def _rewrites(table: _WordTable, t: int, t_key: TermKey):
    """Every one-step rewrite of the term t, whose sort key is t_key, over
    the call's word table, in a fixed order: ``(t_next, match, kept,
    binding)`` for each rewrite inside the bounds, with t_next and kept as
    masks, and None for each rewrite pruned by the bounds. Rewrites that
    give back t are skipped.

    Variables of the target side that the match leaves unbound are
    instantiated from the table's ``guesses``. Kept words come from t, so
    they need a length check only where t has words over the bound, which a
    search never reaches.
    """
    max_summands = table.bounds.max_summands
    long = t & table.long
    hosts = [letters for _, letters in t_key]
    for r, (_, _, src_words, _, _) in enumerate(table.rules):
        memo = table.matches[r]
        for host in hosts:
            anchored = memo.get(host)
            if anchored is None:
                anchored = table.anchored(r, host)
            for m in anchored:
                # no match repeats: _match_word consumes the whole
                # segment, so a binding fixes the image of each source
                # word, and with the contexts its host word and span
                complete = [m]
                for word in src_words[1:]:
                    complete = [e for c in complete for h in hosts
                                for e in (c.below[h] if h in c.below
                                          else table.extended(c, word, h))]
                for c in complete:
                    notbase, extras, images = c.rewrite or table.completed(c)
                    rest = t & notbase
                    for extra in extras:
                        kept = rest | extra
                        for binding, image, fits in images:
                            t_next = image | kept
                            if t_next == t:
                                continue
                            if (not fits or kept & long
                                    or t_next.bit_count() > max_summands):
                                yield None
                                continue
                            yield t_next, c, kept, binding


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
    bounds. The witnesses are ``(rule, forward, left, right, kept,
    binding)``, with ``kept`` the remainder's words as a frozenset of letter
    tuples and ``binding`` mapping each variable to one letter tuple.

    Each rule is tried in both orientations; variables of the target side
    that the match leaves unbound are instantiated from ``image_pool``.
    The list is sorted by key, stably, so the result is deterministic and
    a term reached in several ways appears once per way, in the order the
    rewrites were generated. t may lie outside the bounds. Turning a key
    into a Term and its witnesses into a DerivationStep is left to the
    caller, for the rewrites it keeps."""
    table = _WordTable(sigma, bounds, image_pool)
    key = t.sort_key()
    found = []
    pruned = 0
    for rewrite in _rewrites(table, table.mask(w.letters for w in t.words), key):
        if rewrite is None:
            pruned += 1
        else:
            found.append((table.key(rewrite[0]), table.witnesses(rewrite)))
    found.sort(key=itemgetter(0))
    return found, pruned


def search_derivation(sigma: list[Identity], claim: Identity,
                      bounds: SearchBounds = SearchBounds()) -> SearchResult:
    """Breadth-first search for a derivation of the claim within bounds.

    A returned derivation always passes :func:`check_derivation`; exhaustion
    only means nothing was found inside the bounds, never non-derivability.
    Substitution images are searched over single words (at most
    max_subst_image letters each). A claim whose right side exceeds the
    bounds is reported exhausted at once: every term the search reaches is
    inside them.

    Terms are visited as the sorted :func:`sorted_rewrites` lists would
    visit them, each reached by the first rewrite that gives it. The search
    keeps terms as ints over one word table (see :class:`_WordTable`) and
    computes sort keys only where order is read: once per level, to sort
    the next frontier, and at the goal, to count the terms its expansion
    reached below it. Terms and DerivationSteps are built only for the
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
    if not bounds.admits(goal):
        return SearchResult(None, "exhausted: claim's right side exceeds bounds", 0)
    table = _WordTable(sigma, bounds, sorted(content(start) | content(goal)) or ["x"])
    goal_mask = table.mask(w.letters for w in goal.words)
    start_mask = table.mask(w.letters for w in start.words)
    # reached term -> (the term it was reached from, the rewrite) or None
    back: dict[int, tuple[int, tuple] | None] = {start_mask: None}
    frontier = [(start.sort_key(), start_mask)]
    sizes: list[int] = []
    pruned = 0
    for _ in range(bounds.max_chain - 1):
        sizes.append(len(frontier))
        nxt: list[int] = []
        for key, t in frontier:
            first = len(nxt)
            for rewrite in _rewrites(table, t, key):
                if rewrite is None:
                    pruned += 1
                    continue
                t_next = rewrite[0]
                if t_next not in back:
                    back[t_next] = (t, rewrite)
                    nxt.append(t_next)
            if goal_mask in back:
                # an expansion's new terms are taken in key order, up to the goal
                goal_key = goal.sort_key()
                new = nxt[first:]
                below = sum(table.key(m) < goal_key for m in new)
                explored = len(back) - len(new) + below + 1
                return SearchResult(_chain_to(sigma, table, back, goal_mask), "found",
                                    explored, pruned, tuple(sizes))
        if not nxt:
            reason = "exhausted: no unexplored terms within bounds"
            if pruned:
                reason += f" ({pruned} rewrites pruned by bound overflow)"
            return SearchResult(None, reason, len(back), pruned, tuple(sizes))
        frontier = sorted((table.key(m), m) for m in nxt)
    return SearchResult(
        None, f"exhausted: chain bound {bounds.max_chain} reached", len(back),
        pruned, tuple(sizes),
    )


def _chain_to(sigma: list[Identity], table: _WordTable, back, t: int) -> Derivation:
    """The derivation from the search's start to the term t, read off the
    search's back pointers."""
    chain: list[Term] = []
    steps: list[DerivationStep] = []
    while True:
        chain.append(Term._of_letters(table.words(t)))
        entry = back[t]
        if entry is None:
            break
        t, rewrite = entry
        steps.append(_step(*table.witnesses(rewrite)))
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
