"""Batch driver: parse a campaign config, run the requested checks, report.

A campaign is a JSON document naming a Cartan type, a reduced word, the
root-of-unity orders, which checks to run, and how to enumerate mutation
sequences and exponent vectors.  Letters, positions, and words are 1-based
in configs and reports; internally everything is 0-based.

Exit codes: 0 all checks pass, 1 at least one mathematical FAIL, 2 usage
or config error.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import random
import sys
import time
from collections import namedtuple

from .cluster import (NotCompatibleError, btilde_from_word, check_compatible,
                      mutate_seed, seed_from_word)
from .coeff import ExactDivisionError
from .frobsplit import (ProductTable, TheoremSession, check_split_axioms,
                        reduction_commutes, require_valid_order)
from .qtorus import PrimeField, SkewForm
from .rootdatum import CartanData, cartan_preset, frozen_split, is_reduced
from .uqn import (CheckOutcome, chain_minor_weight, check_frobenius_on_minor,
                  check_minor_power, commutation_matrix, divided_word_count,
                  word_count)

KNOWN_CHECKS = ("LAMBDA", "THEOREM", "BASE_CASE", "KKKO", "SPLIT_AXIOMS", "REDUCTION")

_VECTOR_CAP = 200_000
# Mutation steps a campaign may ask for: the total length of its listed
# sequences, or sequences times depth when they are enumerated.  A seed is
# built by at most that many mutations and keeps none of its history.
_MUTATION_CAP = 100_000
# The next three caps charge the minor model as if every support were full.
# Real supports are usually far smaller; KKKO's charge adds a heuristic l^4.
#
# Shuffle interleavings, for the commutation form: for each pair of chain
# minors of weights a and b, both products D_k D_t and D_t D_k, each over
# every word u of weight a, every word r of weight b and every placement of
# u among the |a| + |b| positions.  This equals the coproduct splits the
# per-word model visited, so a rejection still counts "splits"; the A3
# longest word is charged 14,208.
_LAMBDA_CAP = 2_000_000
# Divided words of weight l * gamma_t, for one BASE_CASE check: the divided
# words over every word of supp D_t^l, were that support full.
_MINOR_CAP = 1_000_000
# Words of weight l * gamma_t times l^4, for one KKKO check, as if each word's
# value in D_t^l cost l^4.  The check builds D_t^l by shuffles and the minor
# of l * varpi by a search over its support, which no factor here measures:
# G2 [1, 2, 1] at l = 5 is charged 15,504 words times 5^4 and admitted, and
# takes 15-33 s a position, mostly in that search.  At l = 3 this admits
# the 10^6 words BASE_CASE admits in divided words.
_KKKO_CAP = 81 * _MINOR_CAP
# Random samples SPLIT_AXIOMS and REDUCTION may each draw per prime.  On A3 at
# p = 3 and 5 a sample costs 40-455 us on 2 cores: under a minute at the cap.
_TRIALS_CAP = 100_000
# The cost of SPLIT_AXIOMS at its largest prime p, in trials times p^4: each
# trial raises random elements to the p-th power.  200 trials pass up to p = 47.
_SPLIT_CAP = 10 ** 9
# The largest order SPLIT_AXIOMS and REDUCTION may be given: each order is
# tested for primality by trial division, under 10^6 steps below the bound.
_PRIME_ORDER_CAP = 10 ** 12

# Recorded with every report: why torus-level equality of the exponent maps
# decides the identity for cluster monomials, including ones with frozen
# denominators.
EXTENSION_NOTE = (
    "exponent maps act on all torus monomials, negative exponents included; "
    "on a cluster monomial this agrees with the maps defined on nonnegative "
    "coordinates after clearing frozen denominators via the projection "
    "formula, and the v=1 torus has no zero divisors, so torus equality is "
    "equivalent to the cluster-level identity")


class CampaignError(ValueError):
    """Config rejected; message carries the offending field."""


def _jsonable(obj):
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return repr(obj)


def _is_int(x) -> bool:
    # JSON true and false load as bool, which Python counts as an int
    return isinstance(x, int) and not isinstance(x, bool)


def _check_keys(field: str, obj: dict, listed: str, enumerated: set) -> None:
    """obj either lists its items under one key or enumerates them from the
    others; reject unknown keys and the two forms given together."""
    for key in obj:
        if key != listed and key not in enumerated:
            raise CampaignError(f"{field}: unknown key {key!r}")
    if listed in obj and len(obj) > 1:
        raise CampaignError(f"{field}: {listed} and {min(set(obj) - {listed})} "
                            "cannot be given together")


def _count_floor_bits(coords, divided: bool) -> int:
    """k with 2^k at most the number of words of weight coords, or of divided
    words when divided.  Placed commonest letter first, each later count c
    goes among s >= 2c places in C(s, c) >= 2^c ways, so there are at least
    2^(sum - max) words; every word is a divided word, and the compositions
    of the largest count alone give 2^(max - 1) divided words."""
    top = max(coords, default=0)
    rest = sum(coords) - top
    return max(rest, top - 1) if divided else rest


def _decimal(n: int) -> str:
    """n in decimal, or its power-of-two floor past 100 digits."""
    return str(n) if n < 10 ** 100 else f"at least 2^{n.bit_length() - 1}"


def enumerate_mutation_sequences(positions, depth: int):
    """All mutation sequences up to the given length, shortest first,
    skipping immediate repeats (mutation at one position is involutive,
    which is tested separately)."""
    out = [()]
    frontier = [()]
    for _ in range(depth):
        frontier = [seq + (pos,) for seq in frontier for pos in positions
                    if not seq or seq[-1] != pos]
        out.extend(frontier)
    return out


def _computes_form(checks, lam_config) -> bool:
    """Whether a run computes the commutation form with the minor model: for
    LAMBDA, and for the seeds and mod-p checks when the config gives none."""
    return "LAMBDA" in checks or (lam_config is None and bool(
        {"THEOREM", "SPLIT_AXIOMS", "REDUCTION"} & set(checks)))


def mutation_sequence_count(k: int, depth: int) -> int:
    """len(enumerate_mutation_sequences(positions, depth)) for k positions,
    in closed form: 1 + k((k-1)^d - 1)/(k-2), or 1 + 2d when k = 2."""
    r = k - 1
    return 1 + k * (depth if r == 1 else (r ** depth - 1) // (r - 1))


class Campaign(namedtuple("Campaign", "label datum word l_values sequences vectors checks "
                          "lam_config reduction_prefix trials rng_seed fields")):
    """A validated config; fields holds F_p for each prime order, when
    SPLIT_AXIOMS or REDUCTION runs."""

    __slots__ = ()

    @classmethod
    def from_dict(cls, doc: dict) -> "Campaign":
        if not isinstance(doc, dict):
            raise CampaignError("config root must be an object")
        known = {"cartan", "word", "l_values", "mutations", "exponents",
                 "checks", "lambda", "reduction_prefix", "trials", "rng_seed"}
        for key in doc:
            if key not in known:
                raise CampaignError(f"unknown field {key!r}")

        cartan = doc.get("cartan")
        if isinstance(cartan, str):
            label = cartan
            try:
                datum = cartan_preset(cartan)
            except ValueError:
                raise CampaignError(f"cartan: unknown preset {cartan!r}") from None
        elif isinstance(cartan, dict):
            label = "custom"
            for key in cartan:
                if key not in ("matrix", "sym"):
                    raise CampaignError(f"cartan: unknown key {key!r}")
            matrix, sym = cartan.get("matrix"), cartan.get("sym")
            if not isinstance(matrix, list) or not matrix or not all(
                    isinstance(row, list) and all(_is_int(x) for x in row)
                    for row in matrix):
                raise CampaignError(
                    "cartan: matrix must be a nonempty list of rows of integers")
            if not isinstance(sym, list) or not all(_is_int(x) for x in sym):
                raise CampaignError("cartan: sym must be a list of integers")
            try:
                datum = CartanData(matrix, sym)
            except ValueError as exc:
                raise CampaignError(f"cartan: {exc}") from None
        else:
            raise CampaignError("cartan: preset name or {matrix, sym} required")

        raw_word = doc.get("word")
        if (not isinstance(raw_word, list) or not raw_word
                or not all(_is_int(i) and 1 <= i <= datum.n for i in raw_word)):
            raise CampaignError(f"word: expected letters in 1..{datum.n}")
        word = tuple(i - 1 for i in raw_word)
        if not is_reduced(datum, word):
            raise CampaignError("word: word not reduced")

        raw_l = doc.get("l_values", [])
        if not isinstance(raw_l, list) or not all(_is_int(l) for l in raw_l):
            raise CampaignError("l_values: expected a list of integers")
        seen = set()
        for l in raw_l:
            try:
                require_valid_order(datum, l)
            except ValueError as exc:
                raise CampaignError(f"l_values: {exc}") from None
            if l in seen:
                raise CampaignError(f"l_values: order {l} is repeated")
            seen.add(l)

        positions, _ = frozen_split(datum, word)
        mut = doc.get("mutations", {"depth": 0})
        if not isinstance(mut, dict):
            raise CampaignError("mutations: expected an object")
        _check_keys("mutations", mut, "sequences", {"depth"})
        if "sequences" in mut:
            if not isinstance(mut["sequences"], list):
                raise CampaignError("mutations: sequences must be a list")
            sequences = []
            for seq in mut["sequences"]:
                if (not isinstance(seq, list) or not all(
                        _is_int(k) and 1 <= k <= len(word) for k in seq)):
                    raise CampaignError(f"mutations: bad sequence {seq}")
                zeroed = tuple(k - 1 for k in seq)
                for k in zeroed:
                    if k not in positions:
                        raise CampaignError(
                            f"mutations: position {k + 1} is not exchangeable")
                sequences.append(zeroed)
            if sum(map(len, sequences)) > _MUTATION_CAP:
                raise CampaignError(
                    f"mutations: sequences need more than {_MUTATION_CAP} mutation "
                    "steps (their total length)")
            sequences = tuple(sequences)
        else:
            depth = mut.get("depth", 0)
            if not _is_int(depth) or depth < 0:
                raise CampaignError("mutations: depth must be a nonnegative integer")
            # Every prefix of an enumerated sequence is enumerated too, so
            # sequences times depth bounds the steps.  Counted, not
            # enumerated: the product does not fall with depth and passes
            # the cap at cap + 1, so clamping there keeps the powers small
            # and the verdict unchanged.
            d = min(depth, _MUTATION_CAP + 1)
            if d * mutation_sequence_count(len(positions), d) > _MUTATION_CAP:
                raise CampaignError(
                    f"mutations: depth {depth} needs more than {_MUTATION_CAP} "
                    "mutation steps (sequences times depth)")
            sequences = tuple(enumerate_mutation_sequences(positions, depth))

        exp = doc.get("exponents", {"max_entry": 0})
        if not isinstance(exp, dict):
            raise CampaignError("exponents: expected an object")
        _check_keys("exponents", exp, "vectors", {"max_entry"})
        if "vectors" in exp:
            if not isinstance(exp["vectors"], list):
                raise CampaignError("exponents: vectors must be a list")
            if len(exp["vectors"]) > _VECTOR_CAP:
                raise CampaignError(f"exponents: more than {_VECTOR_CAP} vectors")
            vectors = []
            for vec in exp["vectors"]:
                if (not isinstance(vec, list) or len(vec) != len(word)
                        or not all(_is_int(x) and x >= 0 for x in vec)):
                    raise CampaignError(f"exponents: bad vector {vec}")
                # every listed vector lies in a box the max_entry form accepts
                if (max(vec) + 1) ** len(word) > _VECTOR_CAP:
                    raise CampaignError(f"exponents: vector {vec} has an entry past every max_entry "
                                        f"whose box has at most {_VECTOR_CAP} vectors")
                vectors.append(tuple(vec))
            vectors = tuple(vectors)
        else:
            top = exp.get("max_entry", 0)
            if not _is_int(top) or top < 0:
                raise CampaignError("exponents: max_entry must be a nonnegative integer")
            if (top + 1) ** len(word) > _VECTOR_CAP:
                raise CampaignError(
                    f"exponents: box has more than {_VECTOR_CAP} vectors")
            vectors = tuple(itertools.product(range(top + 1), repeat=len(word)))

        checks = doc.get("checks", list(KNOWN_CHECKS))
        if not isinstance(checks, list):
            raise CampaignError("checks: expected a list of check names")
        checks = tuple(checks)
        for name in checks:
            if name not in KNOWN_CHECKS:
                raise CampaignError(f"checks: unknown check {name!r}")

        lam_config = doc.get("lambda")
        if lam_config is not None:
            try:
                lam_config = tuple(tuple(row) for row in lam_config)
                if not all(_is_int(x) for row in lam_config for x in row):
                    raise TypeError("entries must be integers")
                lam_config = SkewForm(lam_config)
            except (ValueError, TypeError) as exc:
                raise CampaignError(f"lambda: {exc}") from None
            if lam_config.r != len(word):
                raise CampaignError("lambda: size does not match the word")

        # The minor model pairs weights through the inverse Cartan matrix.
        computes_form = _computes_form(checks, lam_config)
        if computes_form or {"BASE_CASE", "KKKO"} & set(checks):
            try:
                datum.inverse()
            except ValueError as exc:
                raise CampaignError(f"cartan: {exc}") from None
            gammas = [chain_minor_weight(datum, word, t) for t in range(len(word))]

        if computes_form:
            n = sum(2 * word_count(a) * word_count(b)
                    * math.comb(sum(a.coords) + sum(b.coords), sum(a.coords))
                    for a, b in itertools.combinations(gammas, 2))
            if n > _LAMBDA_CAP:
                raise CampaignError(
                    f"checks: the commutation form needs {n} splits, more than "
                    f"{_LAMBDA_CAP}; give it as lambda, without the LAMBDA check")

        # A minor check costs its words or divided words, times l^4 for
        # KKKO; a rejection names its costliest position and order.  A floor
        # on the count is checked first, so a count too long to compute or
        # print never is.
        for check, what, count, power, cap in (
                ("BASE_CASE", "divided words", divided_word_count, 0, _MINOR_CAP),
                ("KKKO", "words", word_count, 4, _KKKO_CAP)):
            if check not in checks:
                continue
            floor = (0, 0, 0)
            for t, gamma in enumerate(gammas):
                for l in raw_l:
                    bits = _count_floor_bits([l * c for c in gamma.coords], check == "BASE_CASE")
                    if bits > floor[0]:
                        floor = (bits, t, l)
            bits, t, l = floor
            if 1 << bits > cap:
                raise CampaignError(
                    f"checks: {check} at position {t + 1}, l = {l} needs at least "
                    f"2^{bits} {what}, more than {cap}")
            worst = (0, 0, 0, 0)
            for t, gamma in enumerate(gammas):
                for l in raw_l:
                    n = count(l * gamma)
                    if n * l ** power > worst[0]:
                        worst = (n * l ** power, n, t, l)
            cost, n, t, l = worst
            if cost > cap:
                per_word = f", {n} * l^{power} = {_decimal(cost)}" if power else ""
                raise CampaignError(
                    f"checks: {check} at position {t + 1}, l = {l} needs {n} "
                    f"{what}{per_word}, more than {cap}")

        prefix = doc.get("reduction_prefix", max(1, len(word) // 2))
        if not _is_int(prefix) or not 1 <= prefix <= len(word):
            raise CampaignError("reduction_prefix: out of range")

        trials = doc.get("trials", 200)
        if not _is_int(trials) or trials < 1:
            raise CampaignError("trials: must be a positive integer")
        if trials > _TRIALS_CAP:
            raise CampaignError(f"trials: {trials} is more than {_TRIALS_CAP}")
        rng_seed = doc.get("rng_seed", 0)
        if not _is_int(rng_seed):
            raise CampaignError("rng_seed: must be an integer")
        tests_primes = bool({"SPLIT_AXIOMS", "REDUCTION"} & set(checks))
        if tests_primes and max(raw_l, default=0) > _PRIME_ORDER_CAP:
            raise CampaignError(f"l_values: SPLIT_AXIOMS and REDUCTION take orders "
                                f"up to {_PRIME_ORDER_CAP}, not {max(raw_l)}")
        # each order is tested for primality here, once per run
        fields = []
        if tests_primes:
            for l in raw_l:
                with contextlib.suppress(ValueError):     # l is not prime
                    fields.append(PrimeField(l))
        if "SPLIT_AXIOMS" in checks:
            p = max((field.p for field in fields), default=0)
            if trials * p ** 4 > _SPLIT_CAP:
                raise CampaignError(
                    f"checks: SPLIT_AXIOMS at p = {p} needs {trials} trials * p^4 = "
                    f"{trials * p ** 4}, more than {_SPLIT_CAP}")

        return cls(label, datum, word, tuple(raw_l), sequences, vectors,
                   checks, lam_config, prefix, trials, rng_seed, tuple(fields))


# -- check execution -------------------------------------------------------

# Raised by seed building or the theorem checker on a bad commutation form;
# the batch records them as a FAIL instead of stopping the campaign.
_ENGINE_ERRORS = (ExactDivisionError, NotCompatibleError)


def _record(name, params, outcome, millis):
    rec = {"name": name, "params": _jsonable(params),
           "verdict": "PASS" if outcome.passed else "FAIL",
           "checked": outcome.checked, "millis": millis}
    if outcome.witness is not None:
        rec["witness"] = _jsonable(outcome.witness)
    if outcome.note:
        rec["note"] = outcome.note
    return rec


def _run_tasks(tasks) -> list:
    """Run (name, params, fn, args) checks in order, each timed, and return
    their records; module-level so a process pool can run groups of tasks
    in parallel."""
    records = []
    for name, params, fn, args in tasks:
        t0 = time.perf_counter()
        outcome = fn(*args)
        records.append(_record(name, params, outcome, int((time.perf_counter() - t0) * 1000)))
    return records


def _build_seeds(datum, word, lam: SkewForm, sequences) -> dict:
    """The seed after each mutation sequence and after none: one mutation of
    the seed of seq[:-1] when that was built before, otherwise a walk from
    the word's seed that keeps none of the seeds it passes.  An engine error
    stands in for the seed it stopped, and for every seed built from it."""
    try:
        seeds = {(): seed_from_word(datum, word, lam)}
    except _ENGINE_ERRORS as exc:
        seeds = {(): exc}
    for seq in sequences:
        if seq in seeds:
            continue
        seed, steps = ((seeds[seq[:-1]], seq[-1:]) if seq[:-1] in seeds
                       else (seeds[()], seq))
        for pos in steps:
            if isinstance(seed, Exception):
                break
            try:
                seed = mutate_seed(seed, pos)
            except _ENGINE_ERRORS as exc:
                seed = exc
        seeds[seq] = seed
    return seeds


# The SeedExpander product table of this process, shared by every theorem
# batch it runs and empty outside a run: run empties it when it ends, and a
# pool worker starts from the empty table it forks or imports.  Products are
# exact and keyed by their factors, so no report depends on which process
# ran which batch.
_PRODUCTS = ProductTable()
# Terms the table may hold when a batch starts; past it the table is
# emptied.  Block products range from one term to thousands, so the bound
# counts terms, not entries.  On a cell of finite cluster type the seeds
# share their variables and the table levels off: serially, theorem-scatter
# ends at 26.7k terms (12.6k at l = 3, 14.1k at l = 5, in 2,460 entries)
# and a3-theorem at 9.1k.  A term took about 330 bytes there (l = 3 and 5,
# traced with tracemalloc), so the bound is about 16 MB; a coefficient has
# l - 1 entries, so a term costs more at larger l.  On a cell of infinite
# type each mutation makes new variables, and without the bound every
# product of every one of them would stay until the run ends.
_PRODUCT_TERMS_CAP = 50_000


def _theorem_batch(seed, l, vectors) -> CheckOutcome:
    """The theorem at order l for every exponent vector on one seed, or a
    FAIL carrying the engine error that stands in for the seed."""
    try:
        if isinstance(seed, Exception):
            raise seed
        if _PRODUCTS.terms > _PRODUCT_TERMS_CAP:
            _PRODUCTS.clear()
        return TheoremSession(seed, l, _PRODUCTS).check_all(vectors)
    except _ENGINE_ERRORS as exc:
        return CheckOutcome(False, 0, note=f"engine error: {exc}")


def _lambda_oracle(campaign: Campaign, computed: SkewForm) -> CheckOutcome:
    """The LAMBDA check: the computed form is compatible with the word's
    exchange matrix, with diagonal 2 t_{i_k}, and equals the config's form
    when one is given."""
    try:
        bt = btilde_from_word(campaign.datum, campaign.word)
        d = check_compatible(bt, computed)
    except NotCompatibleError as exc:
        return CheckOutcome(False, 1, note=str(exc))
    want = tuple(2 * campaign.datum.sym[campaign.word[k]] for k in bt.cols)
    if d != want:
        return CheckOutcome(False, 1, witness={"d": list(d), "expected": list(want)})
    if campaign.lam_config is not None and campaign.lam_config != computed:
        return CheckOutcome(False, 2, witness={"computed": _jsonable(computed.mat),
                                               "config": _jsonable(campaign.lam_config.mat)})
    return CheckOutcome(True, 2)


def _usable_cpus() -> int:
    """The CPUs this process may run on: the most pool workers worth starting."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:          # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def run(campaign: Campaign, jobs: int = 1) -> dict:
    checks, datum, word = campaign.checks, campaign.datum, campaign.word
    records = []
    lam = source = None
    # Resolved in this process before any task is built: every seed and
    # every mod-p check needs the form.
    if _computes_form(checks, campaign.lam_config):
        t0 = time.perf_counter()
        lam, source = SkewForm(commutation_matrix(datum, word)), "computed"
        if "LAMBDA" in checks:
            outcome = _lambda_oracle(campaign, lam)
            records.append(_record("lambda-oracle", {"word": [i + 1 for i in word]},
                                   outcome, int((time.perf_counter() - t0) * 1000)))
    # Whatever would read a computed form reads the config's when given.
    if campaign.lam_config is not None and _computes_form(checks, None):
        lam, source = campaign.lam_config, "config"

    # One (name, params, fn, args) task per check, in report order.  The
    # check functions are looked up here, on each call, so wrappers set on
    # this module take effect.
    tasks = []
    if "THEOREM" in checks:
        seeds = _build_seeds(datum, word, lam, campaign.sequences)
        tasks += [("theorem", {"l": l, "mutations": [k + 1 for k in seq],
                               "exponents": len(campaign.vectors)},
                   _theorem_batch, (seeds[seq], l, campaign.vectors))
                  for l in campaign.l_values for seq in campaign.sequences]

    # One task per minor check; each owns its oracle caches.
    tasks += [(name, {"position": t + 1, "l": l}, fn, (datum, word, t, l))
              for check, name, fn in (
                  ("BASE_CASE", "minor-base-case", check_frobenius_on_minor),
                  ("KKKO", "minor-power", check_minor_power))
              if check in checks
              for l in campaign.l_values for t in range(len(word))]

    fields, trials = campaign.fields, campaign.trials
    if "SPLIT_AXIOMS" in checks:
        tasks += [("splitting-axioms", {"p": f.p, "trials": trials}, check_split_axioms,
                   (lam, f, random.Random(f"{campaign.rng_seed}:split:{f.p}"), trials))
                  for f in fields]
    if "REDUCTION" in checks:
        prefix = campaign.reduction_prefix
        block = SkewForm([row[:prefix] for row in lam.mat[:prefix]])
        tasks += [("splitting-reduction", {"p": f.p, "prefix": prefix, "samples": trials},
                   reduction_commutes,
                   (datum, word, block, f,
                    random.Random(f"{campaign.rng_seed}:reduction:{f.p}"), trials))
                  for f in fields]

    # Sequences that reach one seed share its theorem batch at each order:
    # only the first task in report order with an equal (seed, l) runs, and
    # a repeat's record copies its outcome with its own params and millis 0.
    firsts = {}
    owners = [firsts.setdefault(args[:2] if fn is _theorem_batch else i, i)
              for i, (_, _, fn, args) in enumerate(tasks)]
    distinct = [tasks[i] for i in firsts.values()]
    try:
        workers = min(jobs, len(distinct), _usable_cpus())
        # The theorem batches lead the list.  They go as one contiguous run
        # per worker, in report order, so each worker's product table serves
        # neighbouring seeds; every other task goes alone.
        batches, runs = sum(fn is _theorem_batch for _, _, fn, _ in distinct), max(workers, 1)
        groups = [distinct[batches * k // runs:batches * (k + 1) // runs] for k in range(runs)]
        groups = [group for group in groups if group] + [[task] for task in distinct[batches:]]
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=workers) as pool:
                ran = list(pool.map(_run_tasks, groups))
        else:
            ran = list(map(_run_tasks, groups))
    finally:
        _PRODUCTS.clear()
    done = dict(zip(firsts.values(), itertools.chain.from_iterable(ran)))
    records += [done[i] if j == i else
                {**done[j], "params": _jsonable(tasks[i][1]), "millis": 0}
                for i, j in enumerate(owners)]

    meta = {"type": campaign.label,
            "word": [i + 1 for i in word],
            "lambda": _jsonable(lam.mat if lam is not None else None),
            "lambda_source": source or "none",
            "orders": list(campaign.l_values),
            "note": EXTENSION_NOTE}
    return {"meta": meta, "checks": records}


# -- report emission -------------------------------------------------------

def emit(report: dict, fmt: str, *, deterministic=False) -> str:
    if deterministic:
        report = json.loads(json.dumps(report))
        for rec in report["checks"]:
            rec["millis"] = 0
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True) + "\n"

    lines = []
    meta = report["meta"]
    lines.append(f"type {meta['type']}  word {meta['word']}  "
                 f"lambda from {meta['lambda_source']}")
    header = f"{'check':24} {'params':40} {'verdict':8} {'millis':>7}"
    lines.append(header)
    lines.append("-" * len(header))
    for rec in report["checks"]:
        params = ", ".join(f"{k}={v}" for k, v in rec["params"].items())
        lines.append(f"{rec['name']:24} {params:40} {rec['verdict']:8} "
                     f"{rec['millis']:>7}")
        if "witness" in rec:
            lines.append(f"    witness: {json.dumps(rec['witness'], sort_keys=True)}")
        if "note" in rec:
            lines.append(f"    note: {rec['note']}")
    total = len(report["checks"])
    fails = sum(1 for rec in report["checks"] if rec["verdict"] == "FAIL")
    lines.append(f"{total} checks, {fails} failed")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qcfrob",
        description="Verify root-of-unity identities for quantum cluster "
                    "algebras on unipotent cells.")
    parser.add_argument("--config", required=True, help="campaign JSON file")
    parser.add_argument("--format", choices=("json", "text"), default="text")
    parser.add_argument("--deterministic", action="store_true",
                        help="zero out timing fields")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the check tasks: one per "
                        "distinct seed and order, prime, and minor check")
    parser.add_argument("--out", help="write the report here instead of stdout")
    args = parser.parse_args(argv)

    if args.jobs < 1:
        print("error: --jobs must be positive", file=sys.stderr)
        return 2
    try:
        with open(args.config) as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise CampaignError(f"config is not valid JSON: {exc}") from None
            except ValueError as exc:   # past Python's int digit limit, or not text
                raise CampaignError(f"config could not be read: {exc}") from None
        campaign = Campaign.from_dict(doc)
        # Opened before the run, so a bad path costs no campaign.
        out = contextlib.nullcontext(sys.stdout)
        if args.out:
            out = open(args.out, "w")
    except (OSError, CampaignError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    report = None
    try:
        with out as fh:
            report = run(campaign, jobs=args.jobs)
            fh.write(emit(report, args.format, deterministic=args.deterministic))
            fh.flush()
    except BrokenPipeError:
        # The reader closed the pipe: the rest of the report is dropped, and
        # stdout is pointed at devnull so the flush at exit cannot fail too.
        if report is None:
            raise
        if not args.out:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)

    failed = any(rec["verdict"] == "FAIL" for rec in report["checks"])
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
