"""Self time, counting and uninstalling of the span tracer."""

import types

import spans


def test_self_time_excludes_child_spans(monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(spans, "perf_counter", lambda: clock[0])

    def work(seconds):
        clock[0] += seconds

    ns = types.SimpleNamespace()
    ns.child = lambda: work(2.0)

    def parent():
        work(1.0)
        ns.child()
        ns.child()
    ns.parent = parent
    tracer = spans.Tracer(record=("outer",))
    tracer.patch(ns, "child", "inner")
    tracer.patch(ns, "parent", "outer")
    ns.parent()
    tracer.uninstall()
    agg = tracer.report()["aggregates"]
    assert list(agg["inner"]) == [2, 4.0, 4.0]
    assert list(agg["outer"]) == [1, 5.0, 1.0]
    assert [s["name"] for s in tracer.report()["spans"]] == ["outer"]


def test_generator_steps_are_timed_and_counted():
    ns = types.SimpleNamespace(items=lambda n: iter(range(n)))
    tracer = spans.Tracer()
    tracer.patch_generator(ns, "items", "gen", count="gen.items")
    assert list(ns.items(3)) == [0, 1, 2]
    tracer.uninstall()
    report = tracer.report()
    assert report["counters"] == {"gen.items": 3}
    assert report["aggregates"]["gen"][0] == 4  # three items and the stop


def test_uninstall_restores_the_program():
    from cv2x_bench import netem
    original = vars(netem.LinkSimulator)["run_tick"]
    tracer = spans.Tracer()
    spans.install_emulator(tracer)
    assert vars(netem.LinkSimulator)["run_tick"] is not original
    tracer.uninstall()
    assert vars(netem.LinkSimulator)["run_tick"] is original
