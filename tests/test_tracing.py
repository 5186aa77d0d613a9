"""The benchmark tracer's targets exist in qcloak, and uninstalling the
tracer restores every attribute it wrapped."""

import importlib
import importlib.util
import pathlib
import sys

TRACING_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _qcloak_attributes():
    return {
        name: dict(vars(mod))
        for name, mod in sys.modules.items()
        if name == "qcloak" or name.startswith("qcloak.")
    }


def test_tracer_resolves_every_target_and_uninstall_restores_them():
    tracing = _load_tracing()
    for _span, modname, _attr, _hook in tracing.TARGETS:
        importlib.import_module(modname)
    before = _qcloak_attributes()
    tracer = tracing.Tracer()
    tracer.install()  # raises TraceTargetError if a target name is gone
    try:
        wrapped = [
            (modname, attr)
            for _span, modname, attr, _hook in tracing.TARGETS
            if getattr(sys.modules[modname], attr) is not before[modname][attr]
        ]
        assert len(wrapped) == len(tracing.TARGETS)
    finally:
        tracer.uninstall()
    after = _qcloak_attributes()
    assert after.keys() == before.keys()
    for modname, attrs in before.items():
        assert after[modname].keys() == attrs.keys(), modname
        changed = [a for a, v in attrs.items() if after[modname][a] is not v]
        assert changed == [], modname
