"""Tests for the Zhao-Malik def-use comparator."""

import pytest

from repro.ir import parse_program
from repro.linalg import IntMatrix
from repro.window import max_total_window, max_window_size
from repro.window.zhao_malik import def_use_peak, zhao_malik_report


class TestZhaoMalik:
    def test_input_array_live_from_start(self):
        # Read-only array: first element's ZM life starts at time 0, so
        # the def-use peak can exceed the access window.
        prog = parse_program("for i = 1 to 9 { B[0] = A[10 - i] }")
        window = max_window_size(prog, "A")
        zm = def_use_peak(prog, "A")
        assert window == 0  # each element accessed once: empty window
        assert zm == 9  # but all inputs wait on-chip under def-use rules

    def test_written_then_read(self):
        prog = parse_program(
            "for i = 1 to 9 { S1: T[i] = A[i]\n S2: B[0] = T[i] }"
        )
        assert def_use_peak(prog, "T") == 1

    def test_overwrite_kills_value(self):
        # T[0] is rewritten every iteration: only one value live at a time.
        prog = parse_program("for i = 1 to 9 { T[0] = A[i] }")
        assert def_use_peak(prog, "T") == 1

    def test_report_totals(self):
        prog = parse_program(
            "for i = 1 to 9 { S1: T[i] = A[i] + A[i-1] }"
        )
        report = zhao_malik_report(prog)
        assert set(report.per_array) == {"T", "A"}
        assert report.total_peak >= max(report.per_array.values())

    def test_zm_vs_window_on_example8(self):
        prog = parse_program(
            """
            for i = 1 to 25 {
              for j = 1 to 10 {
                X[2*i + 5*j + 1] = X[2*i + 5*j + 5]
              }
            }
            """
        )
        window = max_total_window(prog)
        zm = zhao_malik_report(prog).total_peak
        # X is both input and output here; def-use counts the un-consumed
        # inputs from time zero, so ZM >= the access window.
        assert zm >= window

    def test_transformation_applies(self):
        prog = parse_program(
            "for i = 1 to 8 { for j = 1 to 8 { T[i][j] = T[i-1][j] } }"
        )
        t = IntMatrix([[0, 1], [1, 0]])
        assert def_use_peak(prog, "T", t) <= def_use_peak(prog, "T")

    def test_unknown_array(self):
        prog = parse_program("for i = 1 to 4 { A[i] = 1 }")
        with pytest.raises(KeyError):
            def_use_peak(prog, "Z")
