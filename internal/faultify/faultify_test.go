package faultify

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestScheduleDeterministic pins the core contract: the same (plan, seed)
// yields the same fault schedule on every replay, and a different seed yields
// a different one.
func TestScheduleDeterministic(t *testing.T) {
	plan, err := Lookup("mayhem")
	if err != nil {
		t.Fatal(err)
	}
	var a, b, c []Fault
	for i := uint64(0); i < 500; i++ {
		fa, _ := plan.decide(7, i)
		fb, _ := plan.decide(7, i)
		fc, _ := plan.decide(8, i)
		a, b, c = append(a, fa), append(b, fb), append(c, fc)
	}
	diff := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs between replays of the same seed: %v vs %v", i, a[i], b[i])
		}
		if a[i] != c[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Error("seeds 7 and 8 produced identical 500-decision schedules")
	}
	faulted := 0
	for _, f := range a {
		if f != FaultNone {
			faulted++
		}
	}
	// mayhem faults ~48% of requests; 500 draws must land well inside (100, 380).
	if faulted < 100 || faulted > 380 {
		t.Errorf("mayhem faulted %d/500 decisions; schedule looks mis-weighted", faulted)
	}
}

// TestPlanRegistryAndParse covers lookup, the built-in list, and the
// "<plan>:<seed>" flag syntax.
func TestPlanRegistryAndParse(t *testing.T) {
	if names := Plans(); !reflect.DeepEqual(names, []string{"flaky", "hang", "partial", "mayhem"}) {
		t.Fatalf("Plans() = %q", names)
	}
	const unknown = `faultify: unknown plan "gremlins" (have [flaky hang mayhem partial])`
	if _, err := Lookup("gremlins"); err == nil || err.Error() != unknown {
		t.Errorf("Lookup(gremlins) error = %v, want %s", err, unknown)
	}
	in, err := Parse("flaky:42")
	if err != nil || in.Seed() != 42 || in.Plan().Name != "flaky" {
		t.Errorf("Parse(flaky:42) = %+v, %v", in, err)
	}
	if in, err = Parse("hang"); err != nil || in.Seed() != 1 {
		t.Errorf("Parse(hang) should default the seed to 1: %+v, %v", in, err)
	}
	if _, err = Parse("flaky:banana"); err == nil {
		t.Error("bad seed parsed successfully")
	}
	if _, err = Parse("gremlins:1"); err == nil || err.Error() != unknown {
		t.Errorf("Parse(gremlins:1) error = %v, want %s", err, unknown)
	}
}

// TestPlanTableInvariants checks every entry of the plan table is
// well-formed: a non-empty unique name and probabilities that validate.
func TestPlanTableInvariants(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range plans {
		if p.Name == "" {
			t.Errorf("plan table entry with an empty name: %+v", p)
		}
		if seen[p.Name] {
			t.Errorf("plan %q listed twice", p.Name)
		}
		seen[p.Name] = true
		if err := p.validate(); err != nil {
			t.Error(err)
		}
	}
}

func okHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"status":"ok","version":"test","queued":0,"running":0,"finished":0}`+"\n")
	})
}

// TestTransportFaults drives each client-side fault through a real request.
func TestTransportFaults(t *testing.T) {
	ts := httptest.NewServer(okHandler())
	t.Cleanup(ts.Close)

	get := func(in *Injector, ctx context.Context) (*http.Response, error) {
		cl := &http.Client{Transport: in.Transport(nil)}
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/healthz", nil)
		return cl.Do(req)
	}

	// Reset: transport error before a response exists.
	if _, err := get(NewInjector(Plan{Name: "t", Reset: 1}, 1), t.Context()); err == nil || !strings.Contains(err.Error(), "connection reset") {
		t.Errorf("reset fault: err = %v, want injected connection reset", err)
	}

	// 5xx: synthetic 503 carrying the uniform envelope.
	resp, err := get(NewInjector(Plan{Name: "t", ServerError: 1}, 1), t.Context())
	if err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("5xx fault: %v %v", resp, err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `"code":"internal"`) {
		t.Errorf("5xx body = %q, want the error envelope", body)
	}

	// Hang: blocks until the context deadline, then surfaces it.
	ctx, cancel := context.WithTimeout(t.Context(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := get(NewInjector(Plan{Name: "t", Hang: 1}, 1), ctx); err == nil {
		t.Error("hang fault returned a response")
	}
	if d := time.Since(start); d < 40*time.Millisecond || d > 2*time.Second {
		t.Errorf("hang released after %v, want ~the 50ms deadline", d)
	}

	// Partial: response arrives but the body read fails.
	resp, err = get(NewInjector(Plan{Name: "t", Partial: 1}, 1), t.Context())
	if err != nil {
		t.Fatalf("partial fault should deliver a response: %v", err)
	}
	_, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err == nil {
		t.Error("partial fault delivered the full body without a read error")
	}

	// Exemption: the capabilities handshake is never faulted.
	in := NewInjector(Plan{Name: "t", Reset: 1}, 1)
	cl := &http.Client{Transport: in.Transport(nil)}
	if resp, err := cl.Get(ts.URL + "/v1/capabilities"); err != nil {
		t.Errorf("capabilities request faulted: %v", err)
	} else {
		resp.Body.Close()
	}
	if in.Decisions() != 0 {
		t.Errorf("capabilities request consumed %d fault decisions, want 0", in.Decisions())
	}
}

// TestMiddlewareFaults drives the server-side faults end to end over real
// connections (httptest), where aborts actually sever TCP streams.
func TestMiddlewareFaults(t *testing.T) {
	serve := func(in *Injector) *httptest.Server {
		ts := httptest.NewServer(in.Middleware(okHandler()))
		t.Cleanup(ts.Close)
		return ts
	}

	// Reset: the client's read fails.
	if _, err := http.Get(serve(NewInjector(Plan{Name: "t", Reset: 1}, 1)).URL); err == nil {
		t.Error("reset middleware answered normally")
	}

	// 5xx: envelope served without reaching the inner handler.
	resp, err := http.Get(serve(NewInjector(Plan{Name: "t", ServerError: 1}, 1)).URL)
	if err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("middleware 5xx: %v %v", resp, err)
	}
	resp.Body.Close()

	// Partial: headers and a truncated body, then a severed stream.
	resp, err = http.Get(serve(NewInjector(Plan{Name: "t", Partial: 1}, 1)).URL)
	if err != nil {
		t.Fatalf("partial middleware should start a response: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err == nil && len(body) >= len(`{"status":"ok"`)+40 {
		t.Errorf("partial middleware delivered a complete body: %q", body)
	}

	// Hang: released (and severed) when the client deadline fires.
	cl := &http.Client{Timeout: 50 * time.Millisecond}
	start := time.Now()
	if _, err := cl.Get(serve(NewInjector(Plan{Name: "t", Hang: 1}, 1)).URL); err == nil {
		t.Error("hang middleware answered within the deadline")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("hang middleware released after %v", d)
	}

	// Every request draws one decision.
	in := NewInjector(Plan{Name: "t", ServerError: 1}, 1)
	ts := serve(in)
	for i := 0; i < 3; i++ {
		if resp, err := http.Get(ts.URL); err == nil {
			resp.Body.Close()
		}
	}
	if in.Decisions() != 3 {
		t.Errorf("%d decisions drawn, want 3", in.Decisions())
	}
}
