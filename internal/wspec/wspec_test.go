package wspec

import (
	"fmt"
	"strings"
	"testing"

	"c3d/internal/addr"
	"c3d/internal/trace"
	"c3d/internal/workload"
)

// TestParseRejectsHostileDocuments drives Parse/Validate/Compile with a
// corpus of malformed and hostile documents: each must fail with a targeted
// error, never compile to a runnable workload.
func TestParseRejectsHostileDocuments(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		want string // error substring
	}{
		{"empty", ``, "parse"},
		{"not json", `nonsense`, "parse"},
		{"trailing data", `{"version":1,"name":"a","base":"facesim"} {"more":1}`, "trailing data"},
		{"unknown field", `{"version":1,"name":"a","base":"facesim","turbo":true}`, "unknown field"},
		{"unknown version", `{"version":99,"name":"a","base":"facesim"}`, "unsupported spec version 99"},
		{"no name", `{"version":1,"base":"facesim"}`, "no name"},
		{"no mode", `{"version":1,"name":"a"}`, "exactly one of base, tenants or trace"},
		{"two modes", `{"version":1,"name":"a","base":"facesim","trace":"x.c3dt"}`, "exactly one of base, tenants or trace"},
		{"trace with knobs", `{"version":1,"name":"a","trace":"x.c3dt","seed":7}`, "takes no other knobs"},
		{"negative threads", `{"version":1,"name":"a","base":"facesim","threads":-1}`, "must be non-negative"},
		{"threads over cap", `{"version":1,"name":"a","base":"facesim","threads":65537}`, "exceed"},
		{"negative accesses", `{"version":1,"name":"a","base":"facesim","accesses_per_thread":-5}`, "must be non-negative"},
		{"override out of range", `{"version":1,"name":"a","base":"facesim","overrides":{"shared_fraction":1.5}}`, "out of [0,1]"},
		{"skew under one", `{"version":1,"name":"a","base":"facesim","overrides":{"locality_skew":0.5}}`, "must be >= 1"},
		{"arrival no process", `{"version":1,"name":"a","base":"facesim","arrival":{"process":"","mean":5}}`, "arrival has no process"},
		{"arrival unknown process", `{"version":1,"name":"a","base":"facesim","arrival":{"process":"cauchy","mean":5}}`, "cauchy"},
		{"arrival negative mean", `{"version":1,"name":"a","base":"facesim","arrival":{"process":"poisson","mean":-1}}`, "must be non-negative"},
		{"sharing unknown dist", `{"version":1,"name":"a","base":"facesim","sharing":{"dist":"uniformish","theta":1}}`, "uniformish"},
		{"phase zero fraction", `{"version":1,"name":"a","base":"facesim","phases":[{"fraction":0}]}`, "must be positive"},
		{"phase negative fraction", `{"version":1,"name":"a","base":"facesim","phases":[{"fraction":-2}]}`, "must be positive"},
		{"phases and tenants", `{"version":1,"name":"a","base":"facesim","phases":[{"fraction":1}],"tenants":[{"name":"t","base":"nutch"}]}`, "exactly one of base, tenants or trace"},
		{"tenant no name", `{"version":1,"name":"a","tenants":[{"name":"","base":"nutch"}]}`, "has no name"},
		{"tenant duplicate", `{"version":1,"name":"a","tenants":[{"name":"t","base":"nutch"},{"name":"t","base":"nutch"}]}`, "appears twice"},
		{"tenant no base", `{"version":1,"name":"a","tenants":[{"name":"t"}]}`, "has no base"},
		{"tenant negative weight", `{"version":1,"name":"a","tenants":[{"name":"t","base":"nutch","weight":-1}]}`, "must be non-negative"},
		{"tenant weights sum to 0", `{"version":1,"name":"a","tenants":[{"name":"t","base":"nutch","weight":0},{"name":"u","base":"nutch","weight":0}]}`, "tenant weights sum to 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, err := Parse([]byte(tc.doc))
			if err == nil {
				err = d.Validate()
			}
			if err == nil {
				_, err = Compile(d)
			}
			if err == nil {
				t.Fatalf("document compiled, want error containing %q\ndoc: %s", tc.want, tc.doc)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

// TestCompileRejectsBadReferences covers the compile-stage failures Parse
// and Validate cannot see: unknown and cyclic base references, and a phase
// whose overrides are each in range but leave an invalid variant.
func TestCompileRejectsBadReferences(t *testing.T) {
	// facesim's CommFraction 0.10 plus the phase's SharedFraction 0.95 is
	// over 1.
	if _, err := Load([]byte(`{"version":1,"name":"p","base":"facesim","phases":[{"fraction":1,"shared_fraction":0.95}]}`)); err == nil || !strings.Contains(err.Error(), "phase 0") {
		t.Errorf("invalid phase variant: err = %v, want a phase 0 rejection", err)
	}
	if _, err := Load([]byte(`{"version":1,"name":"a","base":"nonesuch"}`)); err == nil || !strings.Contains(err.Error(), "unknown workload") {
		t.Errorf("unknown base: err = %v, want unknown workload", err)
	}
	if _, err := Load([]byte(`{"version":1,"name":"a","tenants":[{"name":"t","base":"nonesuch"}]}`)); err == nil || !strings.Contains(err.Error(), "unknown workload") {
		t.Errorf("unknown tenant base: err = %v, want unknown workload", err)
	}

	mustParse := func(doc string) *Doc {
		t.Helper()
		d, err := Parse([]byte(doc))
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	_, err := compileAll([]*Doc{
		mustParse(`{"version":1,"name":"a","base":"b"}`),
		mustParse(`{"version":1,"name":"b","base":"a"}`),
	}, Lookup)
	if err == nil || !strings.Contains(err.Error(), "cyclic base reference") {
		t.Errorf("a<->b: err = %v, want cyclic base reference", err)
	}
	_, err = compileAll([]*Doc{mustParse(`{"version":1,"name":"a","base":"a"}`)}, Lookup)
	if err == nil || !strings.Contains(err.Error(), "cyclic base reference") {
		t.Errorf("a->a in batch: err = %v, want cyclic base reference", err)
	}
	// Outside a batch the same shape is name shadowing, not a cycle: the
	// base resolves to the built-in.
	if _, err := Load([]byte(`{"version":1,"name":"facesim","base":"facesim"}`)); err != nil {
		t.Errorf("built-in-shadowing spec: %v, want nil", err)
	}
	// A composite (tenants) doc cannot serve as a base.
	_, err = compileAll([]*Doc{
		mustParse(`{"version":1,"name":"mix","tenants":[{"name":"t","base":"nutch"}]}`),
		mustParse(`{"version":1,"name":"a","base":"mix"}`),
	}, Lookup)
	if err == nil || !strings.Contains(err.Error(), "composite") {
		t.Errorf("composite base: err = %v, want composite rejection", err)
	}
	// Batch duplicates are rejected before any compilation.
	_, err = compileAll([]*Doc{
		mustParse(`{"version":1,"name":"a","base":"facesim"}`),
		mustParse(`{"version":1,"name":"a","base":"nutch"}`),
	}, Lookup)
	if err == nil || !strings.Contains(err.Error(), "appears twice") {
		t.Errorf("batch duplicate: err = %v, want appears twice", err)
	}
}

// FuzzParse throws arbitrary bytes at the full pipeline: Parse must never
// panic, and anything that parses and validates must either compile or fail
// with an error — also without panicking.
func FuzzParse(f *testing.F) {
	f.Add([]byte(`{"version":1,"name":"a","base":"facesim"}`))
	f.Add([]byte(`{"version":1,"name":"m","tenants":[{"name":"t","base":"nutch","weight":2,"arrival":{"process":"poisson","mean":9}}]}`))
	f.Add([]byte(`{"version":1,"name":"p","base":"facesim","phases":[{"fraction":0.5,"shared_fraction":0.9},{"fraction":0.5}]}`))
	f.Add([]byte(`{"version":1,"name":"p","base":"facesim","phases":[{"fraction":1,"shared_fraction":0.95}]}`))
	f.Add([]byte(`{"version":1,"name":"a","base":"facesim","arrival":{"process":"weibull","mean":5,"shape":0.7},"sharing":{"dist":"zipf","theta":1.2}}`))
	f.Add([]byte(`{"version":99}`))
	f.Add([]byte(`{`))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := Parse(data)
		if err != nil {
			return
		}
		if err := d.Validate(); err != nil {
			return
		}
		// Compiling may fail (unknown bases, unreadable trace paths) but must
		// not panic and must not hang.
		c, err := Compile(d)
		if err != nil {
			return
		}
		// A compiled document's short stream must honour the page span its
		// source reports (trace files report none).
		src, err := workload.NewSource(c.Spec(), workload.Options{Threads: 2, AccessesPerThread: 64})
		if err != nil {
			t.Fatalf("compiled spec %q: %v", d.Name, err)
		}
		if err := checkSpan(src); err != nil {
			t.Fatalf("compiled spec %q: %v", d.Name, err)
		}
	})
}

// checkSpan reads every section of src and reports a read error or the
// first record whose page is not below the source's page span. A source
// without a span passes.
func checkSpan(src trace.Source) error {
	span := trace.PageSpan(src)
	if span == 0 {
		return nil
	}
	check := func(section string, rr trace.RecordReader) error {
		for i := 0; ; i++ {
			rec, ok := rr.Next()
			if !ok {
				return rr.Err()
			}
			if p := addr.PageOf(rec.Addr); uint64(p) >= span {
				return fmt.Errorf("%s record %d addresses page %d, outside the %d-page span", section, i, p, span)
			}
		}
	}
	if err := check("init", src.OpenInit()); err != nil {
		return err
	}
	for th := range src.Threads() {
		if err := check(fmt.Sprintf("thread %d", th), src.OpenThread(th)); err != nil {
			return err
		}
	}
	return nil
}
