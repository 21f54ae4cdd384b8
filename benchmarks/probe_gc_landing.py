"""Where CPython's collections land in one ledger workload's route batches.

    PYTHONPATH=src python benchmarks/probe_gc_landing.py [--workload W] [--seed N]

Runs one ``benchmarks/e2e`` workload in this process as ``run.py --trace 0``
does (those modules are imported, not changed), with a ``gc.callbacks`` hook
around each batch of ``measure.closed_loop_pass``.  Per timed route pass it
prints the gen-0/1/2 collections started inside route batches and the 2nd-
slowest batch, of all and of those with and without a collection (the
ledger's ``batch_p99_ms`` is a round's 2nd-slowest of 200).
"""

import argparse, gc, os, sys, tempfile, time  # noqa: E401

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "e2e"))
import hostclock, measure, runner, workloads  # noqa: E401,E402  (e2e)
import repro  # noqa: E402

state = {"batch": None, "timed": False}     # gen-0/1/2 starts in the batch


def on_gc(phase, info):
    if phase == "start" and state["batch"] is not None:
        state["batch"][info["generation"]] += 1


def ms(seconds):
    return f"{sorted(seconds)[-2] * 1e3:.3f}" if len(seconds) > 1 else "-"


def closed_loop_pass(call, batches, clock, _inner=measure.closed_loop_pass):
    rows = []

    def probed(batch):
        state["batch"] = row = [0, 0, 0]
        rows.append(row)
        answers = call(batch)
        state["batch"] = None
        return answers

    result = _inner(probed, batches, clock)
    if state["timed"] and getattr(call, "__name__", "") == "route_batch":
        hit = [s for s, row in zip(result[1], rows) if any(row)]
        miss = [s for s, row in zip(result[1], rows) if not any(row)]
        gens = "/".join(str(sum(g)) for g in zip(*rows))
        print(f"route pass: {len(rows)} batches  gen0/1/2 in batches {gens}"
              f"  2nd-slowest ms: all {ms(result[1])}  with a collection "
              f"{ms(hit)} ({len(hit)})  without {ms(miss)}", flush=True)
    return result


def query_round(run, serving, samples, _inner=runner._query_round):
    state["timed"] = samples is not None    # None: the untimed warm pass
    return _inner(run, serving, samples)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="build_er", choices=sorted(workloads.SPECS))
    parser.add_argument("--seed", type=int, default=20150721)
    parser.add_argument("--seconds", type=float, default=12.0)
    args = parser.parse_args(argv)
    measure.closed_loop_pass, runner._query_round = closed_loop_pass, query_round
    gc.callbacks.append(on_gc)
    clock = hostclock.HostClock()
    clock.start_timer()
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    with tempfile.TemporaryDirectory(prefix="gc-landing-") as workdir:
        run = runner.Run(workloads.SPECS[args.workload], args.seed, False,
                         src, workdir, clock)
        values, _ = runner.run_end_to_end(run, args.seconds, time.perf_counter())
    clock.stop_timer()
    print(f"batch_p99_ms {values['batch_p99_ms']:.3f}  route_qps "
          f"{values['route_qps']:.0f}  failed {run.failed}")
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
