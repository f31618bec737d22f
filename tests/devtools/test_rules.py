"""Per-rule fixture tests: every rule fires on its negative fixture and
stays silent on its positive one."""

from __future__ import annotations

import fnmatch

import pytest

from repro.devtools.lint import LintEngine, UsageError

from .conftest import FIXTURES, REPO_ROOT, run_project_rule, run_rule

#: rule id -> (bad fixture, expected finding count, good fixture)
FILE_RULE_CASES = {
    "REP001": ("rep001_bad.py", 4, "rep001_good.py"),
    "REP002": ("rep002_bad.py", 2, "rep002_good.py"),
    "REP003": ("rep003_bad.py", 4, "rep003_good.py"),
    "REP004": ("rep004_bad.py", 5, "rep004_good.py"),
    "REP005": ("rep005_bad.py", 4, "rep005_good.py"),
    "REP007": ("rep007_bad.py", 3, "rep007_good.py"),
    "REP008": ("rep008_bad.py", 3, "rep008_good.py"),
    "REP011": ("rep011_bad.py", 4, "rep011_good.py"),
    "REP016": ("rep016_bad.py", 5, "rep016_good.py"),
}


@pytest.mark.parametrize("rule_id", sorted(FILE_RULE_CASES))
def test_rule_fires_on_bad_fixture(rule_id):
    bad, expected, _ = FILE_RULE_CASES[rule_id]
    findings = run_rule(rule_id, FIXTURES / bad)
    assert len(findings) == expected, "\n".join(f.render() for f in findings)
    assert all(f.rule_id == rule_id for f in findings)


@pytest.mark.parametrize("rule_id", sorted(FILE_RULE_CASES))
def test_rule_silent_on_good_fixture(rule_id):
    _, _, good = FILE_RULE_CASES[rule_id]
    findings = run_rule(rule_id, FIXTURES / good)
    assert findings == [], "\n".join(f.render() for f in findings)


def test_rep006_fires_on_bad_project():
    findings = run_rule("REP006", FIXTURES / "rep006_bad_proj")
    messages = [f.message for f in findings]
    assert len(findings) == 4, "\n".join(messages)
    assert any("does not declare" in m for m in messages)
    assert any("mystery_probes" in m for m in messages)
    assert sum("not registered" in m for m in messages) == 2


def test_rep006_silent_on_good_project():
    findings = run_rule("REP006", FIXTURES / "rep006_good_proj")
    assert findings == [], "\n".join(f.render() for f in findings)


def test_rep009_fires_on_bad_project():
    findings = run_rule("REP009", FIXTURES / "rep009_bad_proj")
    messages = [f.message for f in findings]
    assert len(findings) == 4, "\n".join(messages)
    assert any("SPORADIC_TYPES" in m and "high_latency" in m for m in messages)
    assert any("monitor emits" in m and "link_dwon" in m for m in messages)
    assert any(m.startswith("level_of") for m in messages)
    assert any("latency_spike" in m for m in messages)


def test_rep009_silent_on_good_project():
    findings = run_rule("REP009", FIXTURES / "rep009_good_proj")
    assert findings == [], "\n".join(f.render() for f in findings)


def test_rep010_fires_on_bad_project():
    findings = run_rule("REP010", FIXTURES / "rep010_bad_proj")
    messages = [f.message for f in findings]
    assert len(findings) == 4, "\n".join(messages)
    assert any("period_s=5" in m and "SlowPingMonitor" in m for m in messages)
    assert any("no TABLE2_CADENCE entry" in m and "UnchartedMonitor" in m
               for m in messages)
    assert any("MAX_OLD_DEVICE_DELAY_S = 90" in m for m in messages)
    assert any("no matching *_DELAY_S constant" in m for m in messages)


def test_rep010_silent_on_good_project():
    findings = run_rule("REP010", FIXTURES / "rep010_good_proj")
    assert findings == [], "\n".join(f.render() for f in findings)


#: whole-program rule -> (bad fixture dir, expected count, good fixture dir)
PROJECT_RULE_CASES = {
    "REP012": ("rep012_bad_proj", 2, "rep012_good_proj"),
    "REP013": ("rep013_bad_proj", 3, "rep013_good_proj"),
    "REP014": ("rep014_bad_proj", 3, "rep014_good_proj"),
    "REP015": ("rep015_bad_proj", 7, "rep015_good_proj"),
    "REP017": ("rep017_bad_proj", 4, "rep017_good_proj"),
    "REP018": ("rep018_bad_proj", 4, "rep018_good_proj"),
    "REP019": ("rep019_bad_proj", 5, "rep019_good_proj"),
}


@pytest.mark.parametrize("rule_id", sorted(PROJECT_RULE_CASES))
def test_project_rule_fires_on_bad_fixture(rule_id):
    bad, expected, _ = PROJECT_RULE_CASES[rule_id]
    findings = run_project_rule(rule_id, FIXTURES / bad)
    assert len(findings) == expected, "\n".join(f.render() for f in findings)
    assert all(f.rule_id == rule_id for f in findings)


@pytest.mark.parametrize("rule_id", sorted(PROJECT_RULE_CASES))
def test_project_rule_silent_on_good_fixture(rule_id):
    _, _, good = PROJECT_RULE_CASES[rule_id]
    findings = run_project_rule(rule_id, FIXTURES / good)
    assert findings == [], "\n".join(f.render() for f in findings)


def test_rep012_reports_both_directions():
    findings = run_project_rule("REP012", FIXTURES / "rep012_bad_proj")
    messages = [f.message for f in findings]
    assert any("core may not import viz" in m for m in messages)
    assert any("forbidden package repro.tests" in m for m in messages)
    # the illegal import goes through viz/__init__'s re-export, yet the
    # package edge and its via edge report once, not twice
    assert sum("core may not import viz" in m for m in messages) == 1


def test_rep013_reports_at_source_with_witness():
    findings = run_project_rule("REP013", FIXTURES / "rep013_bad_proj")
    clock = [f for f in findings if f.path.endswith("clocks.py")]
    assert len(clock) == 1
    assert "time.time" in clock[0].message
    assert "flows into attribute .created_at" in clock[0].message
    assert "stamp" in clock[0].message  # the cross-function witness
    order = [f for f in findings if "set-order" in f.message]
    assert len(order) == 1
    assert ".incident_id" in order[0].message
    persist = [f for f in findings if f.path.endswith("persist.py")]
    assert len(persist) == 1
    assert "checkpoint write" in persist[0].message


def test_rep014_findings_name_the_entry_point():
    findings = run_project_rule("REP014", FIXTURES / "rep014_bad_proj")
    messages = [f.message for f in findings]
    assert any("mutable global SEEN" in m for m in messages)
    assert any("class attribute ShardedAlertTree.pending" in m
               for m in messages)
    assert any("written after construction" in m for m in messages)
    assert all("[entry " in m and "ShardedLocator" in m for m in messages)


def test_rep014_globs_each_match_code_in_src():
    """Every configured REP014 glob names something under ``src/repro``.

    The rule reports nothing for a glob that matches nothing, so a glob
    left behind by a rename would switch part of it off in silence."""
    from repro.devtools.lint.engine import Project, SourceFile
    from repro.devtools.lint.rules.rep014_shard_safety import ShardSafetyRule

    paths = LintEngine.discover([REPO_ROOT / "src" / "repro"])
    project = Project([SourceFile(path) for path in paths])
    analysis = project.analysis
    options = ShardSafetyRule.default_options
    for pattern in options["entry_points"]:
        assert analysis.callgraph.match_functions([pattern]), pattern
    classes = {
        name
        for table in analysis.symbols.modules.values()
        for name in table.classes
    }
    for pattern in options["shared_classes"]:
        assert fnmatch.filter(sorted(classes), pattern), pattern


def test_rep015_covers_all_drift_directions():
    findings = run_project_rule("REP015", FIXTURES / "rep015_bad_proj")
    messages = [f.message for f in findings]
    assert any("never read" in m and "dead_knob" in m for m in messages)
    assert any("--ghost" in m and "never read" in m for m in messages)
    assert any("--mystery" in m and "no config field" in m for m in messages)
    assert any("--chaos-fog" in m and "ChaosPlan" in m for m in messages)
    assert sum("cannot be set from the runtime CLI" in m for m in messages) == 2
    assert any("outages" in m and "--chaos-*" in m for m in messages)


def test_rep017_covers_all_asymmetry_directions():
    findings = run_project_rule("REP017", FIXTURES / "rep017_bad_proj")
    messages = [f.message for f in findings]
    assert any("'orphaned'" in m and "never read" in m for m in messages)
    assert any(
        "'heap'" in m and "version-gated" in m and "unguarded" in m
        for m in messages
    )
    assert any(
        "'epoch'" in m and "never writes" in m and "KeyError" in m
        for m in messages
    )
    # both class-method pairs and module-level pairs are analyzed
    assert any("Sequencer.state_dict" in m for m in messages)
    assert any("pipeline_state_dict" in m for m in messages)


def test_rep017_catches_seeded_missing_key(tmp_path):
    """Mutating the clean fixture to drop one written key flips the pair
    from silent to a hard missing-key finding -- the rule is load-bearing,
    not vacuously green."""
    import shutil

    shutil.copytree(FIXTURES / "rep017_good_proj", tmp_path / "proj")
    target = tmp_path / "proj" / "repro" / "runtime" / "checkpoint.py"
    text = target.read_text()
    seeded = text.replace('"watermarks": dict(self.watermarks),\n', "")
    assert seeded != text, "mutation site vanished from the fixture"
    target.write_text(seeded)
    findings = run_project_rule("REP017", tmp_path / "proj")
    assert any(
        "'watermarks'" in f.message and "never writes" in f.message
        for f in findings
    ), "\n".join(f.render() for f in findings)


def test_rep018_covers_all_drift_kinds():
    findings = run_project_rule("REP018", FIXTURES / "rep018_bad_proj")
    messages = [f.message for f in findings]
    assert any("dead metric" in m and "runtime_dead_rows_total" in m
               for m in messages)
    assert any("one name, one kind" in m and "runtime_sweeps_total" in m
               for m in messages)
    assert any("updated with .set()" in m and "counters support .inc()" in m
               for m in messages)
    assert any("stale name" in m and "runtime_ghost_rows_total" in m
               for m in messages)
    # the doc finding points into the doc file, not a python module
    doc = [f for f in findings if "stale name" in f.message]
    assert doc and doc[0].path.endswith("README.md")


def test_rep019_distinguishes_normal_and_exception_leaks():
    findings = run_project_rule("REP019", FIXTURES / "rep019_bad_proj")
    messages = [f.message for f in findings]
    assert sum("early return/branch" in m for m in messages) == 3
    assert sum("exception unwinds" in m for m in messages) == 2
    # every resource kind in the fixture is spotted
    for token in ("file 'fh'", "socket 'sock'", "pipe 'recv_end'",
                  "process 'proc'"):
        assert any(token in m for m in messages), token


def test_rep013_supersedes_rep004_at_the_same_site():
    tree = FIXTURES / "rep013_bad_proj"
    alone = LintEngine(select=["REP004"]).run([tree])
    rep004_sites = {
        (f.path, f.line) for f in alone.findings if f.path.endswith("clocks.py")
    }
    assert rep004_sites, "REP004 should flag the raw time.time() call"
    both = LintEngine(select=["REP004", "REP013"], project_mode=True).run([tree])
    for path, line in rep004_sites:
        at_site = [
            f for f in both.findings if f.path == path and f.line == line
        ]
        assert [f.rule_id for f in at_site] == ["REP013"], at_site


def test_project_rule_selection_requires_project_mode():
    with pytest.raises(UsageError):
        LintEngine(select=["REP013"])


def test_rep003_options_override():
    # with a different constant set, 300/900 are no longer special
    engine = LintEngine(
        select=["REP003"],
        rule_options={"REP003": {"timeout_constants": (1234,)}},
    )
    report = engine.run([FIXTURES / "rep003_bad.py"])
    # the threshold-spec string is still flagged; the numerics are not
    assert len(report.findings) == 1
    assert "2/1+2/5" in report.findings[0].message


def test_rep001_messages_point_at_the_enum():
    findings = run_rule("REP001", FIXTURES / "rep001_bad.py")
    assert any("AlertLevel.FAILURE" in f.message for f in findings)


def test_findings_carry_location():
    findings = run_rule("REP005", FIXTURES / "rep005_bad.py")
    assert all(f.line > 0 and f.col > 0 for f in findings)
    assert all(str(FIXTURES / "rep005_bad.py") in f.path or
               f.path.endswith("rep005_bad.py") for f in findings)
