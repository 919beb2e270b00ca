"""The benchmark's span tracer wraps program functions by module attribute
(``bench/spans.py`` ``TARGETS``) and divides per-layer times by their call
counts.  These checks catch a renamed target, or a sweep that no longer calls
the per-step cell functions, without running the traced benchmark."""

import importlib.util
from pathlib import Path

import numpy as np

import bmrnn.network
from bmrnn.network import StoryStream, bmrnn_backward, bmrnn_forward, init_bmrnn_params
from bmrnn.numeric import SeededRng
from bmrnn.skips import SkipMatrix

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_every_traced_attribute_exists():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, attr, span in spans.TARGETS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({span})"


def test_each_sweep_calls_the_cell_once_per_step(monkeypatch):
    calls = {"sgru_forward": 0, "sgru_backward": 0}
    for name in calls:
        fn = getattr(bmrnn.network, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(bmrnn.network, name, counted)
    n = 7
    p = init_bmrnn_params(3, 4, 2, SeededRng(0))
    story = StoryStream(story_id="s", x=np.random.default_rng(0).normal(size=(n, 3)))
    sk = SkipMatrix(n=n, pairs=((0, 3), (1, 5), (3, 6)))
    trace = bmrnn_forward(p, story, sk)
    bmrnn_backward(p, story, sk, trace, np.ones((n, 2)))
    assert calls == {"sgru_forward": 2 * n, "sgru_backward": 2 * n}
