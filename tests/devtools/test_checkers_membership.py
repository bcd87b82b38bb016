"""FRQ-E1102 membership checker tests (positive and negative fixtures)."""

from tests.devtools.conftest import codes_of, lint_source


class TestMembershipStateOwnership:
    def test_epoch_mutation_outside_membership_flagged(self):
        diagnostics = lint_source(
            """
            class Dispatcher:
                def hack(self):
                    self.membership._epoch += 1
            """
        )
        assert codes_of(diagnostics) == ["FRQ-E1102"]

    def test_cursor_mutation_flagged(self):
        diagnostics = lint_source(
            """
            class Dispatcher:
                def rewind(self):
                    self.membership._next_cn = 0
            """
        )
        assert codes_of(diagnostics) == ["FRQ-E1102"]

    def test_join_floor_mutation_flagged(self):
        diagnostics = lint_source(
            """
            class Node:
                def forge(self, floors):
                    self._joined = floors
            """
        )
        assert codes_of(diagnostics) == ["FRQ-E1102"]

    def test_membership_module_exempt(self):
        diagnostics = lint_source(
            """
            class Membership:
                def admit(self, node_id):
                    self._epoch += 1
                    self._joined[node_id] = self._epoch
                    self._next_cn = 0
            """,
            display_path="src/repro/core/membership.py",
        )
        assert codes_of(diagnostics) == []

    def test_bare_annotation_clean(self):
        diagnostics = lint_source(
            """
            class Membershipish:
                def __init__(self):
                    self._epochs: dict[int, int] = {}
            """
        )
        assert codes_of(diagnostics) == []

    def test_local_variable_clean(self):
        diagnostics = lint_source(
            """
            def compute():
                _epoch = 3
                return _epoch
            """
        )
        assert codes_of(diagnostics) == []
