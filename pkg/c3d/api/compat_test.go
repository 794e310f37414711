package api

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestWireFieldNamesPinned freezes the JSON field name of every wire type:
// these names are the public API contract shared by the daemon, the
// coordinator, the SDK and external clients, so a rename here is a breaking
// wire change. The expectations are literal — if one of these assertions
// fails, you changed the wire format, not the test.
func TestWireFieldNamesPinned(t *testing.T) {
	pins := map[string][]string{
		"Params": {
			"quick", "design", "policy", "topology", "sockets", "threads",
			"accesses", "scale", "warmup", "workloads", "parallel", "seed", "broadcast_filter", "spec", "sampling",
		},
		"JobSpec":    {"kind", "params", "experiments", "workload", "verify"},
		"VerifySpec": {"sockets", "loads", "stores", "max_states", "base_only"},
		"JobStatus": {
			"id", "kind", "state", "error", "created", "started", "finished",
			"events",
		},
		"JobPage":        {"jobs", "total", "offset"},
		"SubmitResponse": {"id", "state"},
		"Event": {
			"kind", "state", "job", "done", "total", "states", "elapsed_ms",
			"err",
		},
		"Error":          {"code", "message", "-"},
		"ErrorEnvelope":  {"error"},
		"ExperimentInfo": {"id", "paper", "description"},
		"Capabilities": {
			"version", "designs", "topologies", "experiments", "workloads",
		},
		"Health": {
			"status", "version", "queued", "running", "finished", "workers",
			"cache",
		},
		"WorkerHealth": {"url", "healthy", "assigned", "inflight"},
		"CacheStats":   {"entries", "hits", "misses"},
		"CampaignSpec": {"jobs"},
		"CampaignJob": {
			"index", "state", "worker", "cache_hit", "attempts", "hedges",
			"error",
		},
		"CampaignStatus": {
			"id", "state", "error", "done", "total", "cache_hits", "jobs",
		},
		"CampaignPage":    {"campaigns", "total", "offset"},
		"CampaignResults": {"id", "results"},
	}
	types := map[string]reflect.Type{
		"Params":          reflect.TypeOf(Params{}),
		"JobSpec":         reflect.TypeOf(JobSpec{}),
		"VerifySpec":      reflect.TypeOf(VerifySpec{}),
		"JobStatus":       reflect.TypeOf(JobStatus{}),
		"JobPage":         reflect.TypeOf(JobPage{}),
		"SubmitResponse":  reflect.TypeOf(SubmitResponse{}),
		"Event":           reflect.TypeOf(Event{}),
		"Error":           reflect.TypeOf(Error{}),
		"ErrorEnvelope":   reflect.TypeOf(ErrorEnvelope{}),
		"ExperimentInfo":  reflect.TypeOf(ExperimentInfo{}),
		"Capabilities":    reflect.TypeOf(Capabilities{}),
		"Health":          reflect.TypeOf(Health{}),
		"WorkerHealth":    reflect.TypeOf(WorkerHealth{}),
		"CacheStats":      reflect.TypeOf(CacheStats{}),
		"CampaignSpec":    reflect.TypeOf(CampaignSpec{}),
		"CampaignJob":     reflect.TypeOf(CampaignJob{}),
		"CampaignStatus":  reflect.TypeOf(CampaignStatus{}),
		"CampaignPage":    reflect.TypeOf(CampaignPage{}),
		"CampaignResults": reflect.TypeOf(CampaignResults{}),
	}
	for name, want := range pins {
		typ, ok := types[name]
		if !ok {
			t.Fatalf("no reflect entry for pinned type %s", name)
		}
		var got []string
		for i := 0; i < typ.NumField(); i++ {
			tag := typ.Field(i).Tag.Get("json")
			got = append(got, strings.Split(tag, ",")[0])
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s wire fields changed:\n got %v\nwant %v", name, got, want)
		}
	}
}

// TestJobSpecRoundTrip pins the serialised form of a fully-populated spec
// and checks decode(encode(spec)) is the identity — the compat guarantee
// clients rely on instead of hand-rolling JSON.
func TestJobSpecRoundTrip(t *testing.T) {
	warm := 0.5
	spec := JobSpec{
		Kind: KindExperiment,
		Params: Params{
			Quick:           true,
			Design:          "c3d",
			Policy:          "FT1",
			Topology:        "mesh",
			Sockets:         8,
			Threads:         16,
			Accesses:        2000,
			Scale:           512,
			Warmup:          &warm,
			Workloads:       []string{"streamcluster", "canneal"},
			Parallelism:     4,
			Seed:            7,
			BroadcastFilter: true,
			Spec:            json.RawMessage(`{"version":1,"name":"mix","base":"streamcluster"}`),
		},
		Experiments: []string{"fig6", "table1"},
		Workload:    "streamcluster",
		Verify:      VerifySpec{Sockets: 2, LoadsPerCore: 1, StoresPerCore: 1, MaxStates: 10, BaseOnly: true},
	}
	const want = `{"kind":"experiment","params":{"quick":true,"design":"c3d","policy":"FT1","topology":"mesh","sockets":8,"threads":16,"accesses":2000,"scale":512,"warmup":0.5,"workloads":["streamcluster","canneal"],"parallel":4,"seed":7,"broadcast_filter":true,"spec":{"version":1,"name":"mix","base":"streamcluster"}},"experiments":["fig6","table1"],"workload":"streamcluster","verify":{"sockets":2,"loads":1,"stores":1,"max_states":10,"base_only":true}}`
	got, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Errorf("JobSpec wire bytes drifted:\n got %s\nwant %s", got, want)
	}
	var back JobSpec
	if err := json.Unmarshal(got, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, spec) {
		t.Errorf("round trip not identity:\n got %+v\nwant %+v", back, spec)
	}
}

// TestOmittedDefaultsStayOmitted pins that zero-valued optional fields do
// not appear on the wire — the omitempty contract old clients depend on.
func TestOmittedDefaultsStayOmitted(t *testing.T) {
	got, err := json.Marshal(JobSpec{Kind: KindVerify})
	if err != nil {
		t.Fatal(err)
	}
	// omitempty does not elide structs, so params and verify always appear —
	// pinned because clients may rely on their presence.
	if want := `{"kind":"verify","params":{},"verify":{}}`; string(got) != want {
		t.Errorf("minimal JobSpec = %s, want %s", got, want)
	}
	st := JobStatus{ID: "job-000001", Kind: KindSimulate, State: StateQueued,
		Created: time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)}
	gotSt, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"id":"job-000001","kind":"simulate","state":"queued","created":"2026-01-02T03:04:05Z","events":0}`; string(gotSt) != want {
		t.Errorf("minimal JobStatus = %s, want %s", gotSt, want)
	}
}

// TestErrorEnvelopeShape pins the uniform error body and the Error error
// string.
func TestErrorEnvelopeShape(t *testing.T) {
	env := ErrorEnvelope{Error: &Error{Code: CodeNotFound, Message: `unknown job "job-000042"`}}
	got, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"error":{"code":"not_found","message":"unknown job \"job-000042\""}}`; string(got) != want {
		t.Errorf("envelope = %s, want %s", got, want)
	}
	if want := `not_found: unknown job "job-000042"`; env.Error.Error() != want {
		t.Errorf("Error() = %q, want %q", env.Error.Error(), want)
	}
}

func TestTerminal(t *testing.T) {
	for state, want := range map[string]bool{
		StateQueued: false, StateRunning: false,
		StateDone: true, StateFailed: true, StateCancelled: true,
	} {
		if Terminal(state) != want {
			t.Errorf("Terminal(%q) = %v, want %v", state, !want, want)
		}
	}
}

func TestCapabilitiesSupportsSpec(t *testing.T) {
	caps := &Capabilities{
		Designs:     []string{"baseline", "c3d"},
		Topologies:  []string{"p2p", "ring"},
		Experiments: []ExperimentInfo{{ID: "fig6"}, {ID: "table1"}},
		Workloads:   []string{"streamcluster"},
	}
	ok := []JobSpec{
		{Kind: KindExperiment, Experiments: []string{"fig6", "all"}},
		{Kind: KindSimulate, Workload: "streamcluster", Params: Params{Design: "c3d", Topology: "ring"}},
		// A workload-spec document defines workloads the capability list
		// cannot know; name checks defer to the server.
		{Kind: KindSimulate, Workload: "mix", Params: Params{Spec: json.RawMessage(`{"version":1,"name":"mix","base":"x"}`)}},
		{Kind: KindExperiment, Params: Params{Workloads: []string{"mix"}, Spec: json.RawMessage(`{"version":1,"name":"mix","base":"x"}`)}},
	}
	for _, spec := range ok {
		if err := caps.SupportsSpec(spec); err != nil {
			t.Errorf("SupportsSpec(%+v) = %v, want nil", spec, err)
		}
	}
	bad := []JobSpec{
		{Kind: KindExperiment, Experiments: []string{"fig99"}},
		{Kind: KindSimulate, Workload: "nonesuch"},
		{Kind: KindSimulate, Workload: "streamcluster", Params: Params{Design: "warp-drive"}},
		{Kind: KindSimulate, Workload: "streamcluster", Params: Params{Topology: "moebius"}},
		{Kind: KindExperiment, Params: Params{Workloads: []string{"nonesuch"}}},
	}
	for _, spec := range bad {
		if err := caps.SupportsSpec(spec); err == nil {
			t.Errorf("SupportsSpec(%+v) = nil, want error", spec)
		}
	}
}
