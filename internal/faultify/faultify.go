// Package faultify is deterministic fault injection for the job service and
// the campaign coordinator: a seeded schedule of transport- and server-level
// failures (connection resets, 5xx answers, delays, truncated bodies,
// hang-until-deadline) that can be spliced into an api.Client's HTTP
// transport or wrapped around a daemon's handler.
//
// Determinism is the point. An Injector draws every fault decision from a
// splitmix64 stream keyed by (seed, decision index), so the same plan and
// seed always produce the same fault schedule: decision i of a run is faulted
// (or not) identically on every replay, which makes chaos tests reproducible
// and their campaign outputs cmp-able against fault-free runs. The faults
// themselves are chosen to be recoverable by the fault-tolerance machinery
// they exercise — a reset is retried, a 503 is transient, a truncated body is
// a read error, a hang is bounded by the caller's deadline — so an injected
// run must finish with byte-identical results, never different ones.
//
// Plans are named entries of a static table (the same shape as the design,
// topology and routing-policy tables): look one up with Lookup, or parse a
// "<plan>:<seed>" flag value with Parse. c3dd exposes the whole package
// behind its -chaos flag — server-side faults in worker mode, dispatch-path
// transport faults in coordinator mode.
//
// The capabilities endpoint (/v1/capabilities) is always exempt: it is the
// fleet handshake, consulted once at coordinator startup, and faulting it
// would turn "chaos during a campaign" into "coordinator refuses to boot" —
// a different (and uninteresting) failure mode.
package faultify

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Fault is one injected failure mode.
type Fault int

const (
	// FaultNone lets the request through untouched.
	FaultNone Fault = iota
	// FaultReset severs the connection: the client sees a transport error
	// before any response arrives.
	FaultReset
	// FaultServerError answers HTTP 503 with the uniform error envelope,
	// without the request ever reaching the real handler.
	FaultServerError
	// FaultDelay forwards the request after a deterministic pause.
	FaultDelay
	// FaultPartial forwards the request but truncates the response body
	// halfway, so the client's read fails.
	FaultPartial
	// FaultHang parks the request until the caller's context/deadline gives
	// up, then severs the connection — the hung-worker simulation.
	FaultHang
)

func (f Fault) String() string {
	switch f {
	case FaultNone:
		return "none"
	case FaultReset:
		return "reset"
	case FaultServerError:
		return "5xx"
	case FaultDelay:
		return "delay"
	case FaultPartial:
		return "partial"
	case FaultHang:
		return "hang"
	}
	return fmt.Sprintf("fault(%d)", int(f))
}

// Plan is a named mixture of fault probabilities. Each request draws one
// uniform variate from the seeded stream and walks the thresholds in the
// order reset, 5xx, hang, partial, delay; the probabilities must sum to at
// most 1, with the remainder passing the request through clean.
type Plan struct {
	Name string

	// Per-request fault probabilities, each in [0, 1].
	Reset       float64
	ServerError float64
	Hang        float64
	Partial     float64
	Delay       float64

	// MaxDelay bounds FaultDelay pauses (default 100ms). The actual pause is
	// a deterministic fraction of it, drawn from the same seeded stream.
	MaxDelay time.Duration
}

func (p Plan) validate() error {
	sum := 0.0
	for _, v := range []float64{p.Reset, p.ServerError, p.Hang, p.Partial, p.Delay} {
		if v < 0 || v > 1 {
			return fmt.Errorf("faultify: plan %q has a probability outside [0,1]", p.Name)
		}
		sum += v
	}
	if sum > 1 {
		return fmt.Errorf("faultify: plan %q probabilities sum to %g > 1", p.Name, sum)
	}
	return nil
}

// decide maps decision index i of the stream keyed by seed to a fault and,
// for FaultDelay, a pause. It is a pure function: the whole schedule is fixed
// by (plan, seed).
func (p Plan) decide(seed, i uint64) (Fault, time.Duration) {
	u := unit(splitmix64(seed + i*0x9e3779b97f4a7c15))
	switch {
	case u < p.Reset:
		return FaultReset, 0
	case u < p.Reset+p.ServerError:
		return FaultServerError, 0
	case u < p.Reset+p.ServerError+p.Hang:
		return FaultHang, 0
	case u < p.Reset+p.ServerError+p.Hang+p.Partial:
		return FaultPartial, 0
	case u < p.Reset+p.ServerError+p.Hang+p.Partial+p.Delay:
		max := p.MaxDelay
		if max <= 0 {
			max = 100 * time.Millisecond
		}
		frac := unit(splitmix64((seed ^ 0xd1342543de82ef95) + i*0x9e3779b97f4a7c15))
		return FaultDelay, time.Duration(frac * float64(max))
	}
	return FaultNone, 0
}

// splitmix64 is the standard 64-bit mixer (same constants as internal/sweep's
// per-job seeding); faultify carries its own copy so the package stays
// dependency-free.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unit maps a 64-bit hash to [0, 1).
func unit(h uint64) float64 { return float64(h>>11) / float64(1<<53) }

// ---- plan table ----

// plans is the fault-plan table; its order is the listing order of Plans().
var plans = []Plan{
	// Transport flaps: resets, 503s and delays.
	{Name: "flaky", Reset: 0.10, ServerError: 0.15, Delay: 0.20, MaxDelay: 100 * time.Millisecond},
	// Hung workers: requests parked until the caller's deadline, plus resets.
	{Name: "hang", Hang: 0.12, Reset: 0.08},
	// Truncated response bodies and 503s.
	{Name: "partial", Partial: 0.15, ServerError: 0.10},
	// Everything at once: resets, 503s, hangs, truncations, delays.
	{Name: "mayhem", Reset: 0.08, ServerError: 0.10, Hang: 0.06, Partial: 0.08, Delay: 0.16, MaxDelay: 150 * time.Millisecond},
}

// Plans lists the plan names in table order.
func Plans() []string {
	out := make([]string, len(plans))
	for i, p := range plans {
		out[i] = p.Name
	}
	return out
}

// Lookup returns a plan by name.
func Lookup(name string) (Plan, error) {
	for _, p := range plans {
		if p.Name == name {
			return p, nil
		}
	}
	names := Plans()
	sort.Strings(names)
	return Plan{}, fmt.Errorf("faultify: unknown plan %q (have %v)", name, names)
}

// Parse resolves a "<plan>:<seed>" flag value (seed optional, default 1) into
// an Injector — the shape c3dd's -chaos flag accepts.
func Parse(spec string) (*Injector, error) {
	name, seedStr, hasSeed := strings.Cut(spec, ":")
	plan, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	seed := uint64(1)
	if hasSeed {
		seed, err = strconv.ParseUint(seedStr, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("faultify: bad seed in %q: %v", spec, err)
		}
	}
	return NewInjector(plan, seed), nil
}

// Injector is one seeded instance of a plan: a monotone decision counter over
// the plan's deterministic schedule. Safe for concurrent use; concurrent
// requests race for decision indices, but the schedule itself — which indices
// fault, and how — is fixed entirely by (plan, seed).
type Injector struct {
	plan Plan
	seed uint64
	n    atomic.Uint64 // decisions drawn
}

// NewInjector builds an injector over a validated plan.
func NewInjector(plan Plan, seed uint64) *Injector {
	if err := plan.validate(); err != nil {
		panic(err.Error())
	}
	return &Injector{plan: plan, seed: seed}
}

// Plan returns the injector's plan, Seed its seed.
func (in *Injector) Plan() Plan   { return in.plan }
func (in *Injector) Seed() uint64 { return in.seed }

// Decisions reports how many fault decisions were drawn.
//
//c3dlint:allow unused(decision count TestTransportFaults checks the capabilities exemption and TestMiddlewareFaults the schedule with)
func (in *Injector) Decisions() uint64 { return in.n.Load() }

// next draws the next decision from the schedule.
func (in *Injector) next() (Fault, time.Duration) {
	return in.plan.decide(in.seed, in.n.Add(1)-1)
}

// exempt reports whether a request path is never faulted (the capabilities
// handshake; see the package comment).
func exempt(path string) bool { return strings.HasSuffix(path, "/v1/capabilities") }

// Transport wraps an http.RoundTripper with the injector's schedule: splice
// it into an api.Client via api.WithHTTPClient to chaos a dispatch path
// client-side. base nil means http.DefaultTransport.
func (in *Injector) Transport(base http.RoundTripper) http.RoundTripper {
	if base == nil {
		base = http.DefaultTransport
	}
	return &transport{in: in, base: base}
}

type transport struct {
	in   *Injector
	base http.RoundTripper
}

func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	if exempt(req.URL.Path) {
		return t.base.RoundTrip(req)
	}
	fault, pause := t.in.next()
	switch fault {
	case FaultReset:
		return nil, fmt.Errorf("faultify: connection reset (injected)")
	case FaultHang:
		<-req.Context().Done()
		return nil, req.Context().Err()
	case FaultServerError:
		return synthetic503(req), nil
	case FaultDelay:
		select {
		case <-time.After(pause):
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	}
	resp, err := t.base.RoundTrip(req)
	if fault == FaultPartial && err == nil && resp.Body != nil {
		resp.Body = &truncatedBody{body: resp.Body, remaining: resp.ContentLength / 2}
	}
	return resp, err
}

// synthetic503 is the response FaultServerError fabricates: the uniform error
// envelope a loaded daemon would answer with, marked transient so clients
// retry it.
func synthetic503(req *http.Request) *http.Response {
	body := `{"error":{"code":"internal","message":"faultify: injected 503"}}` + "\n"
	return &http.Response{
		Status:        "503 Service Unavailable",
		StatusCode:    http.StatusServiceUnavailable,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        http.Header{"Content-Type": []string{"application/json"}},
		Body:          io.NopCloser(strings.NewReader(body)),
		ContentLength: int64(len(body)),
		Request:       req,
	}
}

// truncatedBody yields at most remaining bytes, then fails the read — the
// client sees a response cut off mid-body. remaining <= 0 (unknown
// content length) truncates after the first read.
type truncatedBody struct {
	body      io.ReadCloser
	remaining int64
	read      int64
}

func (t *truncatedBody) Read(p []byte) (int, error) {
	if t.remaining > 0 && t.read >= t.remaining {
		return 0, io.ErrUnexpectedEOF
	}
	if t.remaining > 0 && int64(len(p)) > t.remaining-t.read {
		p = p[:t.remaining-t.read]
	}
	n, err := t.body.Read(p)
	t.read += int64(n)
	if t.remaining <= 0 && n > 0 {
		return n, io.ErrUnexpectedEOF
	}
	return n, err
}

func (t *truncatedBody) Close() error { return t.body.Close() }

// Middleware wraps an http.Handler with the injector's schedule: the
// server-side chaos c3dd applies in worker mode, so a whole daemon misbehaves
// the same way on every run with the same seed.
func (in *Injector) Middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if exempt(r.URL.Path) {
			next.ServeHTTP(w, r)
			return
		}
		fault, pause := in.next()
		switch fault {
		case FaultReset:
			panic(http.ErrAbortHandler)
		case FaultHang:
			// Park until the client gives up (its dispatch deadline), then
			// sever: the canonical hung worker. The body must be drained
			// first: net/http only watches for the peer closing the
			// connection (which cancels r.Context) once the request body has
			// hit EOF, so an unread POST body would park this goroutine —
			// and the connection — forever.
			io.Copy(io.Discard, r.Body)
			<-r.Context().Done()
			panic(http.ErrAbortHandler)
		case FaultServerError:
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			io.WriteString(w, `{"error":{"code":"internal","message":"faultify: injected 503"}}`+"\n")
			return
		case FaultDelay:
			io.Copy(io.Discard, r.Body)
			select {
			case <-time.After(pause):
			case <-r.Context().Done():
				panic(http.ErrAbortHandler)
			}
		case FaultPartial:
			// Run the real handler into a buffer, send half of its body, then
			// sever the connection mid-response.
			rec := &recorder{header: make(http.Header), status: http.StatusOK}
			next.ServeHTTP(rec, r)
			for k, v := range rec.header {
				w.Header()[k] = v
			}
			w.Header().Del("Content-Length")
			w.WriteHeader(rec.status)
			body := rec.buf.Bytes()
			w.Write(body[:len(body)/2])
			if f, ok := w.(http.Flusher); ok {
				f.Flush()
			}
			panic(http.ErrAbortHandler)
		}
		next.ServeHTTP(w, r)
	})
}

// recorder captures a handler's response so Middleware can replay a truncated
// prefix of it.
type recorder struct {
	header http.Header
	status int
	buf    bytes.Buffer
}

func (r *recorder) Header() http.Header         { return r.header }
func (r *recorder) WriteHeader(status int)      { r.status = status }
func (r *recorder) Write(p []byte) (int, error) { return r.buf.Write(p) }
