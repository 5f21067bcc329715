package experiments

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// textCells returns the body rows of a rendered table (title, header
// and separator dropped) with the header line itself.
func textCells(t *testing.T, text string) (header string, rows []string) {
	t.Helper()
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	if len(lines) < 3 {
		t.Fatalf("table too short:\n%s", text)
	}
	return lines[1], lines[3:]
}

// cellAt returns the cell of a rendered row that starts at the byte
// offset of its column's header.
func cellAt(row string, col int) string {
	if col >= len(row) {
		return ""
	}
	if f := strings.Fields(row[col:]); len(f) > 0 {
		return f[0]
	}
	return ""
}

// checkED compares one JSON-decoded ED against the float64 it encodes
// and the cell the text prints for it: null exactly where the text
// prints "—", and the same float64 everywhere else.
func checkED(t *testing.T, what string, got *float64, want float64, cell string) {
	t.Helper()
	if (got == nil) != (cell == "—") {
		t.Errorf("%s: JSON %v where the text prints %q", what, got, cell)
		return
	}
	if got != nil && *got != want {
		t.Errorf("%s: JSON %v, want %v", what, *got, want)
	}
}

// TestEDDataMarshalsUnobservableAsNull checks that the Equation 1 and
// Table 3 payloads marshal, with every unobservable ED as null exactly
// where the text tables print a dash, and finite EDs unchanged.
func TestEDDataMarshalsUnobservableAsNull(t *testing.T) {
	t.Run("eq1", func(t *testing.T) {
		res := run(t, "eq1")
		data := res.Data.(Eq1Data)
		raw, err := json.Marshal(data)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		var got struct {
			Matrix  struct{ ED [][]*float64 }
			TestSet struct{ ElementED map[string]*float64 }
		}
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		m := data.Matrix
		if len(got.Matrix.ED) != len(m.Elements) {
			t.Fatalf("JSON matrix has %d rows, want %d", len(got.Matrix.ED), len(m.Elements))
		}
		_, rows := textCells(t, res.Text)
		if len(rows) != len(m.Params)+2 {
			t.Fatalf("text has %d rows, want %d parameter rows + 2", len(rows), len(m.Params))
		}
		nulls := 0
		for j, p := range m.Params {
			cells := strings.Fields(rows[j])
			if cells[0] != p.Name() || len(cells) != len(m.Elements)+1 {
				t.Fatalf("text row %q does not match parameter %s", rows[j], p.Name())
			}
			for i, e := range m.Elements {
				checkED(t, "ED("+e+", "+p.Name()+")", got.Matrix.ED[i][j], m.ED[i][j], cells[i+1])
				if got.Matrix.ED[i][j] == nil {
					nulls++
				}
			}
		}
		if nulls == 0 {
			t.Error("no unobservable cell in the Equation 1 matrix; the test no longer covers null")
		}
		for _, cell := range strings.Fields(rows[len(m.Params)+1])[2:] {
			e, text, _ := strings.Cut(cell, "=")
			checkED(t, "element ED "+e, got.TestSet.ElementED[e], data.TestSet.ElementED[e], text)
		}
	})

	t.Run("table3", func(t *testing.T) {
		res := run(t, "table3")
		data := res.Data.(Table3Data)
		raw, err := json.Marshal(data)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		var got struct {
			Rows    []struct{ ED, Case2ED *float64 }
			Matrix  struct{ ED [][]*float64 }
			TestSet struct{ ElementED map[string]*float64 }
		}
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		header, rows := textCells(t, res.Text)
		col1, col2 := strings.Index(header, "ED[%] case 1"), strings.Index(header, "ED[%] case 2")
		if col1 < 0 || col2 < 0 || len(rows) != len(data.Rows) || len(got.Rows) != len(data.Rows) {
			t.Fatalf("text and JSON rows do not line up with %d data rows:\n%s", len(data.Rows), res.Text)
		}
		for k, r := range data.Rows {
			checkED(t, r.Element+" case 1", got.Rows[k].ED, r.ED, cellAt(rows[k], col1))
			checkED(t, r.Element+" case 2", got.Rows[k].Case2ED, r.Case2ED, cellAt(rows[k], col2))
		}
		// The text does not print the matrix behind the rows; its cells
		// take the dash wherever pct would print one.
		nulls := 0
		m := data.Matrix
		for i, e := range m.Elements {
			for j, p := range m.Params {
				checkED(t, "ED("+e+", "+p.Name()+")", got.Matrix.ED[i][j], m.ED[i][j], pct(m.ED[i][j]))
				if got.Matrix.ED[i][j] == nil {
					nulls++
				}
			}
		}
		if nulls == 0 {
			t.Error("no unobservable cell in the Table 3 matrix; the test no longer covers null")
		}
		for _, e := range m.Elements {
			ed := data.TestSet.ElementED[e]
			checkED(t, "element ED "+e, got.TestSet.ElementED[e], ed, pct(ed))
		}
		// Every element of the paper's Chebyshev is observable, so the
		// rows above hold no null; an unobservable row must still encode.
		row, err := json.Marshal(Table3Row{Element: "X", ED: math.Inf(1), Case2ED: math.Inf(1)})
		if err != nil || !strings.Contains(string(row), `"ED":null,"Case2ED":null`) {
			t.Errorf("unobservable row marshals to %s, %v; want null EDs", row, err)
		}
	})
}
