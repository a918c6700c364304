"""What `import formkit.cli` loads, in a fresh interpreter.

Every command starts a new interpreter and pays for this import. No record
in formkit is generated code, so `dataclasses` is never loaded, and
`hashlib` is loaded only by a command that records the digest of an input
file. The benchmark's tracer patches modules through ``sys.modules`` right
after this import, so it must load every module the tracer names.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import formkit
from formkit.jsonio import dump_json, form_to_dict
from test_traced_names import TRACED

ENV = dict(os.environ, PYTHONPATH=str(Path(formkit.__file__).parents[1]))


def test_cli_import_loads_every_traced_module_and_no_generator():
    code = "import json, sys; import formkit.cli; print(json.dumps(sorted(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=ENV, capture_output=True, text=True, check=True).stdout
    loaded = set(json.loads(out))
    assert "dataclasses" not in loaded
    assert "hashlib" not in loaded
    assert {module for module, _ in TRACED} <= loaded


def test_verify_form_records_the_digest_of_its_input(tmp_path, top12):
    path = tmp_path / "top12.json"
    dump_json(form_to_dict(top12.form), str(path))
    command = [sys.executable, "-m", "formkit.cli", "verify", "form", "--file", path.name]
    out = subprocess.run(command, cwd=tmp_path, env=ENV, capture_output=True, text=True, check=True).stdout
    assert json.loads(out)["inputs"] == {path.name: "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()}
