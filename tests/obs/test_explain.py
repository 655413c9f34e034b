"""Explain-mode tests: the ExplainLog itself, plus engine integration."""

from repro.analysis import AnalysisOptions, analyze
from repro.ir import parse
from repro.obs.explain import Decision, ExplainLog

KILL_PROGRAM = """
a(n) :=
for i := n to n+10 do a(i) :=
for i := n to n+20 do := a(i)
"""


class TestExplainLog:
    def test_record_and_group(self):
        log = ExplainLog()
        log.record("flow: a -> b", "killed", "overwritten", by="flow: c -> b")
        log.record("flow: a -> b", "kept", "still live")
        log.record("flow: c -> b", "covers", "covers destination")
        assert len(log) == 3
        assert log.subjects() == ["flow: a -> b", "flow: c -> b"]
        assert [d.action for d in log.for_subject("flow: a -> b")] == [
            "killed",
            "kept",
        ]
        assert log.actions() == {"killed", "kept", "covers"}

    def test_describe_variants(self):
        plain = Decision("s", "kept", "why")
        assert plain.describe() == "kept: why"
        full = Decision("s", "killed", "why", by="killer", used_omega=True)
        assert full.describe() == "killed: why [by killer] (omega general test)"
        quick = Decision("s", "killed", "why", used_omega=False)
        assert quick.describe().endswith("(quick test)")

    def test_render_empty(self):
        assert "(no decisions recorded)" in ExplainLog().render()

    def test_to_dict(self):
        log = ExplainLog()
        log.record("s", "covered", "already written", by="t")
        payload = log.to_dict()
        assert payload["decisions"][0]["action"] == "covered"
        assert payload["decisions"][0]["by"] == "t"


class TestEngineIntegration:
    def test_disabled_by_default(self):
        result = analyze(parse(KILL_PROGRAM, "kill"))
        assert result.explain is None

    def test_trail_records_kill_and_keep(self):
        result = analyze(
            parse(KILL_PROGRAM, "kill"), AnalysisOptions(explain=True)
        )
        log = result.explain
        assert log is not None and len(log) > 0
        actions = log.actions()
        assert "killed" in actions
        assert "kept" in actions
        killed = [d for d in log if d.action == "killed"]
        assert killed[0].by is not None
        assert killed[0].used_omega is not None
        # Every dead dependence has a decision explaining why it died.
        dead_subjects = {
            f"{dep.kind.value}: {dep.src} -> {dep.dst}"
            for dep in result.dead_flow()
        }
        explained = set(log.subjects())
        assert dead_subjects <= explained

    def test_render_mentions_the_killer(self):
        result = analyze(
            parse(KILL_PROGRAM, "kill"), AnalysisOptions(explain=True)
        )
        text = result.explain.render()
        assert "Decision trail" in text
        assert "[by flow:" in text


class TestMergeDeterminism:
    """Explain trails are deterministic: logs merge in call order, and a
    trail does not depend on the cache setting."""

    def test_merge_extends_in_call_order(self):
        a = ExplainLog()
        a.record("s1", "kept", "first")
        b = ExplainLog()
        b.record("s2", "killed", "second", by="s3")
        b.record("s2", "covers", "third")
        merged = a.merge(b)
        assert merged is a
        assert [d.reason for d in a] == ["first", "second", "third"]

    def test_merge_empty_is_noop(self):
        log = ExplainLog()
        log.record("s", "kept", "why")
        log.merge(ExplainLog())
        assert [d.reason for d in log] == ["why"]

    def test_trail_identical_on_corpus_program(self):
        from repro.programs import corpus_programs

        program = corpus_programs()[0]

        def trail(cache):
            result = analyze(program, AnalysisOptions(explain=True, cache=cache))
            return [
                (d.subject, d.action, d.reason, d.by, d.used_omega)
                for d in result.explain
            ]

        assert trail(True) == trail(False)
