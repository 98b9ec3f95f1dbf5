"""Child processes of the benchmark.  Each runs in a fresh interpreter with
src/ on PYTHONPATH, so no uqn cache carries over from another measurement,
and prints one JSON object on stdout.

  child.py setup CONFIG          time.monotonic() once Campaign.from_dict returns
  child.py run CONFIG [SPANS]    the campaign, serial and in-process; with
                                 SPANS, traced, and the spans written there
  child.py kernels SEED          the fixed-input layer kernels
  child.py commutation           one commutation_matrix call on A3
"""

from __future__ import annotations

import hashlib
import json
import sys
import time


def setup(config_path: str) -> dict:
    from qcfrob.cli import Campaign
    with open(config_path) as fh:
        Campaign.from_dict(json.load(fh))
    return {"ready": time.monotonic()}


def install_tracer(tracer) -> None:
    """Wrap the public functions where their callers look them up."""
    from qcfrob import cli, cluster, uqn
    from qcfrob.frobsplit import SeedExpander, TheoremSession
    from qcfrob.qtorus import CycloRing, LaurentRing, PrimeField, TorusElement

    def mul_name(a, b):
        ring = a.ring
        if isinstance(ring, CycloRing):
            return f"qtorus.mul.{ring.point.value}"
        if isinstance(ring, LaurentRing):
            return "qtorus.mul.laurent"
        if isinstance(ring, PrimeField):
            return "qtorus.mul.modp"
        return "qtorus.mul.other"

    def mul_counts(name, args, out):
        a, b = args
        tracer.count(name + ".term_pairs", len(a.terms) * len(b.terms))
        tracer.count(name + ".terms_out", len(out.terms))

    def terms_out(name, args, out):
        tracer.count(name + ".terms_out", len(out.terms))

    def splits_out(name, args, out):
        tracer.count(name + ".splits_out", len(out))

    tracer.wrap(TorusElement, "__mul__", mul_name, mul_counts)
    tracer.wrap(SeedExpander, "monomial", "frobsplit.monomial", terms_out)
    tracer.wrap(TheoremSession, "__init__", "frobsplit.session_init")
    tracer.wrap(cluster, "exact_right_divide", "qtorus.exact_right_divide")
    tracer.wrap(uqn, "word_splits", "uqn.word_splits", splits_out)
    for attr, name in (("run", "cli.run"),
                       ("_theorem_batch", "cli.theorem_batch"),
                       ("commutation_matrix", "uqn.commutation_matrix"),
                       ("check_frobenius_on_minor", "uqn.check_frobenius_on_minor"),
                       ("check_minor_power", "uqn.check_minor_power"),
                       ("mutate_seed", "cluster.mutate_seed"),
                       ("check_split_axioms", "frobsplit.check_split_axioms"),
                       ("reduction_commutes", "frobsplit.reduction_commutes")):
        tracer.wrap(cli, attr, name)


def run(config_path: str, spans_path: str | None = None) -> dict:
    from qcfrob import cli
    tracer = None
    if spans_path is not None:
        from tracer import Tracer
        tracer = Tracer()
        install_tracer(tracer)
    with open(config_path) as fh:
        campaign = cli.Campaign.from_dict(json.load(fh))
    t0 = time.perf_counter()
    report = cli.run(campaign, jobs=1)
    wall = time.perf_counter() - t0
    text = cli.emit(report, "json", deterministic=True)
    out = {"wall_s": wall, "report": json.loads(text),
           "sha256": hashlib.sha256(text.encode()).hexdigest()}
    if tracer is not None:
        tracer.write_spans(spans_path)
        out["layers"] = tracer.summary()
        out["counts"] = tracer.counts
    return out


def main(argv) -> int:
    mode, args = argv[0], argv[1:]
    if mode == "setup":
        result = setup(*args)
    elif mode == "run":
        result = run(*args)
    elif mode == "kernels":
        from kernels import run_kernels
        result = run_kernels(int(args[0]))
    elif mode == "commutation":
        from kernels import time_commutation_a3
        result = {"seconds": time_commutation_a3()}
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
