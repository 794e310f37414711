// Package stats provides the counters, aggregates and formatting helpers used
// to report the C3D experiments: memory-access breakdowns, average memory
// access time (AMAT), traffic accounting, normalised comparisons and geometric
// means, plus a small fixed-width table writer for experiment output.
package stats

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
)

// LatencyAccumulator accumulates (count, total latency) pairs so that average
// latencies such as AMAT can be computed at the end of a run.
type LatencyAccumulator struct {
	count uint64
	total uint64
}

// Observe records one completed access with the given latency in cycles.
func (l *LatencyAccumulator) Observe(latency uint64) {
	l.count++
	l.total += latency
}

// Count returns the number of observations.
func (l *LatencyAccumulator) Count() uint64 { return l.count }

// Total returns the sum of all observed latencies.
func (l *LatencyAccumulator) Total() uint64 { return l.total }

// Mean returns the average latency, or zero if nothing was observed.
func (l *LatencyAccumulator) Mean() float64 {
	if l.count == 0 {
		return 0
	}
	return float64(l.total) / float64(l.count)
}

// Speedup returns baseline/design expressed as a speedup factor (>1 means the
// design is faster), or 0 if the design time is zero.
func Speedup(baselineCycles, designCycles uint64) float64 {
	if designCycles == 0 {
		return 0
	}
	return float64(baselineCycles) / float64(designCycles)
}

// Normalized returns value/reference, or 0 when the reference is zero. It is
// the helper behind every "normalised to baseline" figure in the paper.
func Normalized(value, reference float64) float64 {
	if reference == 0 {
		return 0
	}
	return value / reference
}

// Geomean returns the geometric mean of xs, ignoring non-positive entries
// (which cannot participate in a geometric mean). It returns 0 for an empty
// or all-non-positive slice.
func Geomean(xs []float64) float64 {
	sum := 0.0
	n := 0
	for _, x := range xs {
		if x <= 0 {
			continue
		}
		sum += math.Log(x)
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
//
//c3dlint:allow unused(no caller outside its tests; deletion deferred to ROADMAP item 9)
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Percent formats a fraction (0..1) as a percentage string like "74.6%".
func Percent(frac float64) string {
	return fmt.Sprintf("%.1f%%", frac*100)
}

// Table is a minimal fixed-width text table used by the experiment harness to
// print rows that mirror the paper's tables and figures.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.header))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// NumRows returns the number of data rows.
//
//c3dlint:allow unused(row count the experiment, SDK and fleet tests check tables with)
func (t *Table) NumRows() int { return len(t.rows) }

// Header returns the column headers.
//
//c3dlint:allow unused(header the experiment, SDK and fleet tests check tables with)
func (t *Table) Header() []string { return t.header }

// Rows returns the data rows.
//
//c3dlint:allow unused(rows the experiment, SDK and fleet tests check tables with)
func (t *Table) Rows() [][]string { return t.rows }

// MarshalJSON encodes the table as {"header": [...], "rows": [[...], ...]},
// the machine-readable form consumed by cmd/c3dexp -json and the CI tooling.
// Output is deterministic: callers build rows in deterministic order.
func (t *Table) MarshalJSON() ([]byte, error) {
	type tableJSON struct {
		Header []string   `json:"header"`
		Rows   [][]string `json:"rows"`
	}
	rows := t.rows
	if rows == nil {
		rows = [][]string{}
	}
	return json.Marshal(tableJSON{Header: t.header, Rows: rows})
}

// UnmarshalJSON decodes the {"header": [...], "rows": [[...], ...]} form
// MarshalJSON produces. Every cell is a string, so a decode/encode round
// trip reproduces the original bytes exactly — the property that lets a
// remote campaign client reassemble experiment results byte-identically to
// a local run.
func (t *Table) UnmarshalJSON(data []byte) error {
	var doc struct {
		Header []string   `json:"header"`
		Rows   [][]string `json:"rows"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return err
	}
	t.header = doc.Header
	if doc.Rows == nil {
		doc.Rows = [][]string{}
	}
	t.rows = doc.Rows
	return nil
}

// WriteCSV emits the table as CSV (header first).
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.header); err != nil {
		return err
	}
	for _, r := range t.rows {
		if err := cw.Write(r); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		b.WriteString("\n")
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}
