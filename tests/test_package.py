"""The package's exports load their submodules on first use."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sipnat

SRC = str(Path(__file__).resolve().parent.parent / "src")
SIMULATOR_AND_OPENSSL = (
    "sipnat.harness", "sipnat.simnet", "sipnat.nat", "sipnat.rtp", "sipnat.cli", "hashlib", "_hashlib",
)
# What the package exported when it imported every submodule eagerly.
EXPORTS = {
    "connection_manager": ["ConnectionManager", "Registration", "aor_of"],
    "harness": [
        "Outcome", "Report", "Scenario", "ScriptEvent", "count_savings", "default_script", "run_matrix",
        "run_scenario",
    ],
    "media_controller": ["MediaController", "MediaSession", "PortPool", "RelaySend"],
    "nat": ["NatBox", "NatConfig", "NatType"],
    "net": ["TransportAddress"],
    "proxy": ["CallState", "Phase", "ProxyConfig", "SipProxy"],
    "rtp": ["RtpPacket", "build_rtp", "parse_rtp"],
    "sdp": ["SdpSession", "parse_sdp", "rewrite_media", "serialize_sdp"],
    "sip_message": [
        "MessageFramer", "Method", "SipMessage", "ViaHeader", "build_response", "parse_message",
        "serialize_message",
    ],
}


def fresh_interpreter(code: str):
    """Run ``code`` in a new interpreter with only ``src`` added to the path; return its JSON output."""
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True)
    return json.loads(out.stdout)


@pytest.mark.parametrize("module", ["sipnat.service", "sipnat.proxy"])
def test_the_socket_service_loads_no_simulator_module_and_no_openssl(module):
    loaded = fresh_interpreter(f"import json, sys, {module}; print(json.dumps(sorted(sys.modules)))")
    assert module in loaded
    assert [name for name in SIMULATOR_AND_OPENSSL if name in loaded] == []


def test_a_matrix_run_loads_no_openssl():
    code = (
        "import json, sys; from sipnat.harness import run_matrix; run_matrix(['adapted', 'naive'], packets=1); "
        "print(json.dumps(sorted(sys.modules)))"
    )
    loaded = fresh_interpreter(code)
    assert "sipnat.harness" in loaded
    assert [name for name in ("hashlib", "_hashlib") if name in loaded] == []


def test_every_export_is_its_submodules_object():
    assert sipnat.__all__ == [name for names in EXPORTS.values() for name in names] + ["__version__"]
    for module, names in EXPORTS.items():
        submodule = getattr(sipnat, module)
        for name in names:
            assert getattr(sipnat, name) is getattr(submodule, name), name


def test_dir_lists_every_export_before_any_is_loaded():
    listed = fresh_interpreter("import json, sipnat; print(json.dumps(dir(sipnat)))")
    assert set(sipnat.__all__) <= set(listed)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="^module 'sipnat' has no attribute 'no_such_name'$"):
        sipnat.no_such_name


def test_a_bare_import_reaches_the_submodules_an_eager_import_did():
    submodules = [*EXPORTS, "simnet"]
    code = "import json, sipnat; print(json.dumps([sipnat.harness.run_matrix.__module__, %s]))" % ", ".join(
        f"sipnat.{name}.__name__" for name in submodules
    )
    assert fresh_interpreter(code) == ["sipnat.harness", *(f"sipnat.{name}" for name in submodules)]
