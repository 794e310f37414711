package sweep

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"sort"
	"strconv"
)

// record is the serialised form of one sweep result. Elapsed time is
// deliberately omitted: the emitted artefacts must be byte-identical across
// runs, machines and parallelism levels so CI can diff them.
type record struct {
	Key   string          `json:"key"`
	Seed  int64           `json:"seed"`
	Error string          `json:"error,omitempty"`
	Value json.RawMessage `json:"value,omitempty"`
}

// WriteJSON emits the results as an indented JSON array in job order,
// followed by a newline. Values are marshalled with encoding/json, so
// experiment result types control their own representation; job errors are
// emitted as strings in place of values.
//
//c3dlint:allow unused(the byte form TestRunDeterministicAcrossParallelism compares across parallelism)
func WriteJSON[T any](w io.Writer, results []Result[T]) error {
	records := make([]record, len(results))
	for i, r := range results {
		records[i] = record{Key: r.Key, Seed: r.Seed}
		if r.Err != nil {
			records[i].Error = r.Err.Error()
			continue
		}
		v, err := json.Marshal(r.Value)
		if err != nil {
			return err
		}
		records[i].Value = v
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(records)
}

// WriteCSV emits one row per result in job order. The caller names the value
// columns and provides the per-value flattening; the key and seed columns
// are always present. Failed jobs emit their error in an "error" column and
// empty value cells.
//
//c3dlint:allow unused(no caller outside its tests; deletion deferred to ROADMAP item 9)
func WriteCSV[T any](w io.Writer, results []Result[T], columns []string, row func(T) []string) error {
	cw := csv.NewWriter(w)
	header := append([]string{"key", "seed", "error"}, columns...)
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, r := range results {
		cells := []string{r.Key, strconv.FormatInt(r.Seed, 10), ""}
		if r.Err != nil {
			cells[2] = r.Err.Error()
			cells = append(cells, make([]string, len(columns))...)
		} else {
			cells = append(cells, row(r.Value)...)
		}
		if err := cw.Write(cells); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// SortByKey orders results by key (job order is the default; some consumers
// want a key-sorted view when merging sweeps).
//
//c3dlint:allow unused(no caller outside its tests; deletion deferred to ROADMAP item 9)
func SortByKey[T any](results []Result[T]) {
	sort.SliceStable(results, func(i, j int) bool { return results[i].Key < results[j].Key })
}
