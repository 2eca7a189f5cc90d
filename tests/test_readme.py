"""The README's "Library in a nutshell" example runs as printed and gives the
results its comments state."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def nutshell_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library in a nutshell", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_in_a_nutshell():
    block = nutshell_block()
    # the comments state these two results
    assert "c2 -> c1*c2" in block
    assert "2*i*hbar^2*c1" in block
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    D = namespace["D"]
    assert D.image("c1").is_zero
    assert str(D.image("c2")) == "c1*c2"
    # the block's last line evaluates the residual without keeping it
    last = block.strip().splitlines()[-1].split("#")[0].strip()
    assert last == "space.quantum_master_residual(S)"
    assert str(eval(last, namespace)) == "2*i*hbar^2*c1"
