// Package exp regenerates every table and figure of the paper's
// evaluation (§2.3 measurements, §4.2–§4.6) on the simulated
// SoC-Cluster: each ExpXxx function runs the necessary training jobs
// and returns a Table whose rows mirror what the paper plots. Catalog
// lists them; the root package's BenchmarkExperiments and `socflow
// bench` both run them from there. EXPERIMENTS.md records
// paper-vs-measured numbers produced by it.
package exp

import (
	"fmt"
	"strings"
)

// Table is a paper-style result table: a title, a header, string rows,
// and free-form notes (e.g. the paper's reference numbers).
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a row, stringifying the cells.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = formatFloat(v)
		case float32:
			row[i] = formatFloat(float64(v))
		case int:
			row[i] = fmt.Sprintf("%d", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

func formatFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1000 || v <= -1000:
		return fmt.Sprintf("%.0f", v)
	case v >= 10 || v <= -10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Cell returns the row/column cell, for assertions in tests.
func (t *Table) Cell(row, col int) string { return t.Rows[row][col] }

// FindRow returns the first row whose first cell equals key, or nil.
func (t *Table) FindRow(key string) []string {
	for _, r := range t.Rows {
		if len(r) > 0 && r[0] == key {
			return r
		}
	}
	return nil
}
