"""The CLI prints the bytes the benchmark pins for each of its inputs, and the bytes
pinned here for two wider grids, for family and connection tables, and for
connection tables at N = 120.

`bench/pins.json` maps each benchmark command line to the sha256 of its
stdout; a change to any table route that alters output shows up here.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from umbra.cli import main

ROOT = Path(__file__).resolve().parent.parent
PINS = ROOT / "bench" / "pins.json"

# benchmark workload (at seed 0 unless named) -> its command line, a key of pins.json
SEED0_INPUTS = {
    "verify-grid": "verify --theorems all --max-n 10 --orders 0,1,2,3,4",
    "lambda-symbolic":
        "verify --theorems t3,t8,remark --max-n 10 --orders 0,2,4 --lambdas=-1,2,1/2 --symbolic-lambda",
    # the closed forms are built per lambda, so pin a second sample base too
    "lambda-symbolic-seed4":
        "verify --theorems t3,t8,remark --max-n 10 --orders 0,2,4 --lambdas=-1,1/2,-2 --symbolic-lambda",
    "connect-deep": "connect --from frobenius-euler:3:1/3 --to bernoulli:4 --max-n 60",
    # a negative, non-unit denominator through every integer loop of the table routes
    "connect-deep-seed5": "connect --from frobenius-euler:3:-3/2 --to bernoulli:4 --max-n 60",
}


# command line -> sha256 of its stdout, for grids wider than the benchmark's: every
# identity at N = 16, and the lambda identities at an order above N with a lambda of
# height 10^6 (about 0.15 s and 0.3 s)
WIDE_PINS = {
    "verify --theorems all --max-n 16 --orders 0,2,5":
        "31bf5024faac8d346a2052d53ee6c9036fb715e6bff2e830ff914984e756d3a9",
    "verify --theorems t3,t8,remark --max-n 12 --orders 0,3,15"
    " --lambdas=-1000001/999999,7/3,-5/2 --symbolic-lambda":
        "562037645dcf8dc36190e2059e4e4ef6932fa7838d46799e1de1da0157427839",
}


@pytest.mark.parametrize("command", WIDE_PINS)
def test_wide_grid_stdout_matches_its_digest(command):
    done = subprocess.run(
        [sys.executable, "-m", "umbra.cli", *command.split()], capture_output=True,
        cwd=ROOT, timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == WIDE_PINS[command]


# every command line pinned, each named by its workload where SEED0_INPUTS names it
PINNED = json.loads(PINS.read_text()) if PINS.exists() else {}
_NAMES = {command: workload for workload, command in SEED0_INPUTS.items()}


@pytest.mark.parametrize("command", PINNED, ids=lambda command: _NAMES.get(command, command))
def test_stdout_matches_pinned_digest(command):
    done = subprocess.run(
        [sys.executable, "-m", "umbra.cli", *command.split()], capture_output=True,
        cwd=ROOT, timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == PINNED[command]


def test_traced_run_prints_the_untraced_bytes():
    # bench/traced.py wraps the public callables in every umbra namespace, so code
    # that compares one of them by identity would change course under the trace
    for command in ("verify --theorems all --max-n 5 --orders 0,2",
                    "connect --from frobenius-euler:2:-3/2 --to bernoulli:3 --max-n 12"):
        plain, traced = (
            subprocess.run([sys.executable, *prefix, *command.split()], capture_output=True,
                           cwd=ROOT, timeout=120)
            for prefix in (["-m", "umbra.cli"], [str(ROOT / "bench" / "traced.py")]))
        assert plain.returncode == traced.returncode == 0, (command, traced.stderr.decode())
        assert traced.stdout == plain.stdout, command


# command line -> sha256 of its stdout, for the documents whose rows the CLI renders
# from integer tables: family tables in both formats, from degree 0 to 40
FAMILY_PINS = {
    "family --name hermite --max-degree 30":
        "a3ef6af74dca7d023a8501cc4fd5eaa7ab157eb32817b14efca3440ee63b398b",
    "family --name bernoulli --order 4 --max-degree 25 --format csv":
        "7b2c41e7df001a5daa14afb2bb627dbab601257b9b69ac6527d8f63b1ef18581",
    "family --name frobenius-euler --order 3 --lambda 1/3 --max-degree 40":
        "a25ac241d05d34583838a7542412d5ac583f2544c4090e613e7ba9a3bea76bd7",
    "family --name frobenius-euler --order 3 --lambda 1/3 --max-degree 40 --format csv":
        "28c9e0509b22f546fdb3f9532caa60bca274631bdfa39df8441883e4c4b85983",
    "family --name euler --order 0 --max-degree 0 --format csv":
        "e3bc741c59c091e4ea4898309994087f5a846abbe1e129b07effebcb830b24d1",
}

# (source, target, format) -> sha256 of connect's stdout at --max-n 0, 1, 2, 3, for the
# pairs of the kernel mutant sweep in test_cli.py
CONNECT_PINS = {
    ("euler:1", "hermite", "json"): (
        "310d4268233ad7ec8e76e6a5912fc152297174656ae955054721fa4fc758e186",
        "cb916dcaf96774e940676a79c7d8b27ec41bbdb89b4eba01501a5e6faead0aac",
        "807e00de4261bfd0ef2816024733c615dbbb0c2751f98de6497ddbe4531f2ba8",
        "e0c9d9d53a7f1c3627bba0f117ccbb15d5c6578ac9b92fb718a67ecb847291f7",
    ),
    ("euler:1", "hermite", "csv"): (
        "e3bc741c59c091e4ea4898309994087f5a846abbe1e129b07effebcb830b24d1",
        "24fb7adb11cbbdcc76837be26451679b0e8d66ed5e475ef2886f2f95a57d3c6b",
        "b0e773867ac01dd486dda13a3b8ee0678363c33fe51731b2ede7c16ab838f1d7",
        "a56d3173c2ac18af2d248dad6f67b846cf0b7b0f8cffc6798fae464ef5fa5095",
    ),
    ("hermite", "bernoulli:2", "json"): (
        "e5a53955abde643319e01c3253979bc2d1bf7dd85026d7e44ee9e95956cdb419",
        "abe05c98e177458cce45b2b93a6ea88fac58a6211cf85b0ab59ad6525ae8a933",
        "00150e24dbe22737e4b5b1d09057326ac7d432c25a5ce04a8eeaa6fea6b9dde2",
        "edc3b7167764c7ca0305cb94f51c3296b755074c4bf26770919abb2bf20b4b6c",
    ),
    ("hermite", "bernoulli:2", "csv"): (
        "e3bc741c59c091e4ea4898309994087f5a846abbe1e129b07effebcb830b24d1",
        "db1e196ad442f1b05d3df7df5c4dcf4edc07e4b8b6b28ffd1a898f4cf53e8a4b",
        "c5c40610d3d1ec4b7de8ef95cff4c7bed74e2fe05f45e1ed0a6658aa5055246a",
        "0288cd6e51270bfa5545ed393c95cf14c8743757d79dcb0ef5a7ce8fdc4b1c50",
    ),
    ("frobenius-euler:2:1/3", "euler:1", "json"): (
        "426c13f5f2a14e011c8a05de009b47477f0e2780c652a6141bc651208b1c9760",
        "101c937c00d6788be6c34f19dfae1b9620e5979ba02421fa6482850152c7567a",
        "da7cf4e959b9151904867413e0294a364955026f3bba1d66955e517bf1ed1e92",
        "09ddf1f66e132247af1bb2e251150723edc91434994a0a124ab0bb681cfebd83",
    ),
    ("frobenius-euler:2:1/3", "euler:1", "csv"): (
        "e3bc741c59c091e4ea4898309994087f5a846abbe1e129b07effebcb830b24d1",
        "6971c9578ee722c5d49aa7b3c939db97ceb27a3dfb6a2bb8d14a99e2779c5bd0",
        "6e247d1e8f3c465637d823551c0918ec269b18cdfd3b29f5bb8c9ee1a939f9e1",
        "e4c802e82cfd9053f54de750f1426db9535f438b47532d7137ec4da811e2a094",
    ),
    ("bernoulli:3", "frobenius-euler:1:2", "json"): (
        "3caf14745ff974ce0e5dce7639764eb79eacd81c47d02af57b6ac6cc0dd38d59",
        "68848c811809bb40e2ad001903374902bbbe385b7da025974ad175e8ba0e4686",
        "bb3383eb86d8cdae29282da738992698c2a02755176a0c45aeda635ea6128f51",
        "d67188446f34eb1d5ea3e3fed59fbb873dc9dd5dfc2d55d644ef2da200297f98",
    ),
    ("bernoulli:3", "frobenius-euler:1:2", "csv"): (
        "e3bc741c59c091e4ea4898309994087f5a846abbe1e129b07effebcb830b24d1",
        "6971c9578ee722c5d49aa7b3c939db97ceb27a3dfb6a2bb8d14a99e2779c5bd0",
        "3c0ae273aa6a2066242db3ed80b67511d454c85fbf9a0f7874552cd1d7030c31",
        "05261576cefd87b72c791ddbd60d9463a4f0c683d58f86a65639542b75c5ff38",
    ),
}


@pytest.mark.parametrize("command", FAMILY_PINS)
def test_family_stdout_matches_its_digest(capsys, command):
    assert main(command.split()) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == FAMILY_PINS[command]


@pytest.mark.parametrize("source, target, fmt", CONNECT_PINS)
def test_connect_stdout_matches_its_digests(capsys, source, target, fmt):
    for n_max, digest in enumerate(CONNECT_PINS[source, target, fmt]):
        argv = ["connect", "--from", source, "--to", target, "--max-n", str(n_max), "--format", fmt]
        assert main(argv) == 0, argv
        out, err = capsys.readouterr()
        assert err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


# (source, target) -> sha256 of connect's stdout at --max-n 120, where table entries run
# to about 250 digits, so a fault that shows only on wide integers changes these bytes
WIDE_CONNECT_PINS = {
    ("frobenius-euler:3:1/3", "bernoulli:4"):
        "13ff5785e9a2c7b820a6c78bc49cb4786b7c83334816cb4d1d3e89de66f27c92",
    ("hermite", "bernoulli:2"):
        "d968a32c4e21af7b84b12bae1dcba62537b714a4b5f30c50ec429b968cddf929",
    ("euler:2", "hermite"):
        "dc174c273fb625cf27958676a7309c5139dab182ccff3ec9da2e8db3b3a5aa36",
    ("bernoulli:3", "frobenius-euler:2:-3/2"):
        "3584a1fa472296e28620245842d7151027ed80d4a9215211a3355bb63295f640",
}


@pytest.mark.parametrize("source, target", WIDE_CONNECT_PINS)
def test_wide_connect_stdout_matches_its_digest(capsys, source, target):
    assert main(["connect", "--from", source, "--to", target, "--max-n", "120"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == WIDE_CONNECT_PINS[source, target]
