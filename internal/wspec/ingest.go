package wspec

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"c3d/internal/addr"
	"c3d/internal/trace"
)

// The external text trace format: one record per line,
//
//	<init|thread-index> <r|w> <address> [gap]
//
// with whitespace- or comma-separated fields, '#' comments, hex (0x...) or
// decimal addresses, and an optional "# name: <workload>" directive naming
// the trace. Lines from different threads may appear in any interleaving:
// each reader filters its own section, so converters can dump records in
// whatever order the original tool emitted them.

// TextSource streams an external text-format memory trace as a
// trace.Source. The constructor makes one validating pass to size the
// sections; every reader then re-scans the file filtering its section, so
// resident memory stays bounded by one line however long the trace is, and
// sections replay any number of times (which machine.RunSource's placement
// prepass requires).
type TextSource struct {
	path    string
	name    string
	lens    []int // lens[0] = init section, lens[t+1] = thread t
	threads int
}

// OpenText scans and validates a text-format trace file. Every line is
// checked during the scan, so a malformed file fails here, not mid-replay.
func OpenText(path string) (*TextSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("wspec: %w", err)
	}
	defer f.Close()
	s := &TextSource{path: path, name: defaultTraceName(path)}
	maxThread := -1
	counts := map[int]int{}
	sc := newLineScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if name, ok := nameDirective(text); ok {
			s.name = name
			continue
		}
		section, _, ok, err := parseTextLine(text)
		if err != nil {
			return nil, fmt.Errorf("wspec: %s:%d: %w", path, line, err)
		}
		if !ok {
			continue
		}
		counts[section]++
		if section-1 > maxThread {
			maxThread = section - 1
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("wspec: %s: %w", path, err)
	}
	s.threads = maxThread + 1
	s.lens = make([]int, s.threads+1)
	total := 0
	//c3dlint:allow determinism(counts keys index a dense slice; no ordered iteration escapes)
	for section, c := range counts {
		s.lens[section] = c
		total += c
	}
	if total == 0 {
		return nil, fmt.Errorf("wspec: %s: no trace records", path)
	}
	return s, nil
}

func defaultTraceName(path string) string {
	base := path
	if i := strings.LastIndexByte(base, '/'); i >= 0 {
		base = base[i+1:]
	}
	if i := strings.LastIndexByte(base, '.'); i > 0 {
		base = base[:i]
	}
	if base == "" {
		base = "trace"
	}
	return base
}

// Name returns the trace name: the "# name:" directive if present, else the
// file's base name.
func (s *TextSource) Name() string { return s.name }

// Threads returns the number of parallel threads in the trace.
func (s *TextSource) Threads() int { return s.threads }

// InitLen returns the number of init-section records.
func (s *TextSource) InitLen() int { return s.lens[0] }

// ThreadLen returns the number of records in thread t's stream.
func (s *TextSource) ThreadLen(t int) int { return s.lens[t+1] }

// OpenInit returns a fresh reader over the init section.
func (s *TextSource) OpenInit() trace.RecordReader { return s.open(0) }

// OpenThread returns a fresh reader over thread t's stream.
func (s *TextSource) OpenThread(t int) trace.RecordReader { return s.open(t + 1) }

func (s *TextSource) open(section int) trace.RecordReader {
	if s.lens[section] == 0 {
		// An empty section never reaches its last record, so a reader
		// holding the file would never close it.
		return &textReader{}
	}
	f, err := os.Open(s.path)
	if err != nil {
		return &errReader{err: fmt.Errorf("wspec: %w", err)}
	}
	return &textReader{f: f, sc: newLineScanner(f), path: s.path, section: section, want: s.lens[section]}
}

func newLineScanner(f *os.File) *bufio.Scanner {
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	return sc
}

// textReader filters one section out of the text file. The underlying file
// is closed as soon as the section's last record is emitted.
type textReader struct {
	f       *os.File
	sc      *bufio.Scanner
	path    string
	section int
	want    int
	got     int
	line    int
	err     error
}

func (r *textReader) Next() (trace.Record, bool) {
	if r.err != nil || r.got >= r.want {
		return trace.Record{}, false
	}
	for r.sc.Scan() {
		r.line++
		section, rec, ok, err := parseTextLine(r.sc.Text())
		if err != nil {
			r.fail(fmt.Errorf("wspec: %s:%d: %w", r.path, r.line, err))
			return trace.Record{}, false
		}
		if !ok || section != r.section {
			continue
		}
		r.got++
		if r.got == r.want {
			r.close()
		}
		return rec, true
	}
	if err := r.sc.Err(); err != nil {
		r.fail(fmt.Errorf("wspec: %s: %w", r.path, err))
		return trace.Record{}, false
	}
	// The constructor counted more records than this pass found: the file
	// changed between the scan and the replay.
	r.fail(fmt.Errorf("wspec: %s: section %d ended after %d of %d records (file changed underfoot?)", r.path, r.section, r.got, r.want))
	return trace.Record{}, false
}

func (r *textReader) Err() error { return r.err }

func (r *textReader) fail(err error) {
	r.err = err
	r.close()
}

func (r *textReader) close() {
	if r.f != nil {
		r.f.Close()
		r.f = nil
	}
}

// nameDirective recognises "# name: <workload>" comment lines.
func nameDirective(line string) (string, bool) {
	t := strings.TrimSpace(line)
	if !strings.HasPrefix(t, "#") {
		return "", false
	}
	body := strings.TrimSpace(strings.TrimPrefix(t, "#"))
	v, ok := strings.CutPrefix(body, "name:")
	if !ok {
		return "", false
	}
	name := strings.TrimSpace(v)
	if name == "" {
		return "", false
	}
	return name, true
}

// parseTextLine parses one line. ok is false for blank and comment lines.
// The section is 0 for init, t+1 for thread t.
func parseTextLine(line string) (section int, rec trace.Record, ok bool, err error) {
	if i := strings.IndexByte(line, '#'); i >= 0 {
		line = line[:i]
	}
	fields := strings.FieldsFunc(line, func(r rune) bool {
		return r == ' ' || r == '\t' || r == ','
	})
	if len(fields) == 0 {
		return 0, trace.Record{}, false, nil
	}
	if len(fields) < 3 || len(fields) > 4 {
		return 0, trace.Record{}, false, fmt.Errorf("want `<init|thread> <r|w> <addr> [gap]`, got %d fields", len(fields))
	}
	if fields[0] == "init" {
		section = 0
	} else {
		t, perr := strconv.ParseUint(fields[0], 10, 32)
		if perr != nil {
			return 0, trace.Record{}, false, fmt.Errorf("bad thread index %q (want `init` or a thread number)", fields[0])
		}
		if t >= trace.MaxThreads {
			return 0, trace.Record{}, false, fmt.Errorf("thread index %d exceeds %d", t, trace.MaxThreads-1)
		}
		section = int(t) + 1
	}
	switch strings.ToLower(fields[1]) {
	case "r", "read", "l", "load":
		rec.Kind = trace.Read
	case "w", "write", "s", "store":
		rec.Kind = trace.Write
	default:
		return 0, trace.Record{}, false, fmt.Errorf("bad access kind %q (want r/read/load or w/write/store)", fields[1])
	}
	a, perr := strconv.ParseUint(fields[2], 0, 64)
	if perr != nil {
		return 0, trace.Record{}, false, fmt.Errorf("bad address %q (want hex 0x... or decimal)", fields[2])
	}
	rec.Addr = addr.Addr(a)
	if len(fields) == 4 {
		g, perr := strconv.ParseUint(fields[3], 0, 32)
		if perr != nil {
			return 0, trace.Record{}, false, fmt.Errorf("bad gap %q (want a uint32)", fields[3])
		}
		rec.Gap = uint32(g)
	}
	return section, rec, true, nil
}

// WriteText exports any trace.Source in the text format OpenText reads,
// making the two a lossless round trip (name, sections, kinds, addresses,
// gaps).
func WriteText(w io.Writer, src trace.Source) error {
	bw := bufio.NewWriter(w)
	// Only line breaks are replaced, byte for byte, so any other name,
	// invalid UTF-8 included, reads back unchanged.
	name := strings.NewReplacer("\n", " ", "\r", " ").Replace(src.Name())
	fmt.Fprintf(bw, "# c3d text trace\n# name: %s\n", name)
	emit := func(label string, rr trace.RecordReader) error {
		for {
			rec, ok := rr.Next()
			if !ok {
				break
			}
			kind := byte('w')
			if rec.Kind == trace.Read {
				kind = 'r'
			}
			if _, err := fmt.Fprintf(bw, "%s %c 0x%x %d\n", label, kind, uint64(rec.Addr), rec.Gap); err != nil {
				return err
			}
		}
		return rr.Err()
	}
	if err := emit("init", src.OpenInit()); err != nil {
		return err
	}
	for t := 0; t < src.Threads(); t++ {
		if err := emit(strconv.Itoa(t), src.OpenThread(t)); err != nil {
			return err
		}
	}
	return bw.Flush()
}
