package c3d

import (
	"reflect"
	"testing"

	"c3d/internal/machine"
	"c3d/internal/workload"
	"c3d/pkg/c3d/api"
)

// TestParamsValidationErrors pins the door check: every invalid Params is
// rejected by Params.Session or ValidateJobSpec with exactly this text, so a
// refactor of the configuration path cannot change what clients see.
func TestParamsValidationErrors(t *testing.T) {
	const knownWorkloads = "(known: [bursty-tail canneal cassandra classification facesim fluidanimate freqmine mcf multitenant-mix nutch phase-shift streamcluster tunkrank])"
	const unknownWorkload = `c3d: workload: unknown workload "not-a-workload" ` + knownWorkloads
	warm := func(f float64) *float64 { return &f }
	cases := []struct {
		name string
		spec api.JobSpec
		want string
	}{
		{"negative sockets", experimentJob(Params{Sockets: -1}), "c3d: negative sockets -1"},
		{"negative threads", experimentJob(Params{Threads: -4}), "c3d: negative threads -4"},
		{"negative accesses", experimentJob(Params{Accesses: -1}), "c3d: negative accesses -1"},
		{"negative scale", experimentJob(Params{Scale: -64}), "c3d: negative scale -64"},
		{"negative parallel", experimentJob(Params{Parallelism: -2}), "c3d: negative parallel -2"},
		{"first negative in field order",
			experimentJob(Params{Parallelism: -1, Scale: -2, Accesses: -3, Threads: -4}), "c3d: negative threads -4"},
		{"negative before bad design", experimentJob(Params{Design: "warp-drive", Parallelism: -1}), "c3d: negative parallel -1"},
		{"warm-up 1", experimentJob(Params{Warmup: warm(1)}), "c3d: warm-up fraction 1 outside [0,1)"},
		{"warm-up 1.5", experimentJob(Params{Warmup: warm(1.5)}), "c3d: warm-up fraction 1.5 outside [0,1)"},
		{"negative warm-up", experimentJob(Params{Warmup: warm(-0.25)}), "c3d: warm-up fraction -0.25 outside [0,1)"},
		{"sampling not key=value", experimentJob(Params{Sampling: "banana"}),
			`c3d: sample: "banana" is not key=value (want stretch=N,warm=N,win=N[,seed=S])`},
		{"sampling missing win", experimentJob(Params{Sampling: "stretch=1000"}),
			`c3d: sample: spec "stretch=1000" must set both stretch and win`},
		{"sampling zero window", experimentJob(Params{Sampling: "stretch=10,win=0"}),
			"c3d: sample: win must be >= 1, got 0"},
		{"malformed spec document", experimentJob(Params{Spec: []byte(`{"version":1,`)}),
			"c3d: wspec: parse: unexpected EOF"},
		{"spec with unknown base", experimentJob(Params{Spec: []byte(`{"version":1,"name":"a","base":"not-a-workload"}`)}),
			`c3d: wspec: workload: unknown workload "not-a-workload" ` + knownWorkloads},
		{"unknown design", experimentJob(Params{Design: "warp-drive"}),
			`machine: unknown design "warp-drive" (known: [baseline snoopy full-dir c3d c3d-full-dir shared])`},
		{"unknown policy", experimentJob(Params{Policy: "NUMA9000"}), `numa: unknown policy "NUMA9000"`},
		{"unknown topology", experimentJob(Params{Topology: "moebius"}),
			`interconnect: unknown topology "moebius" (known: [p2p ring mesh full])`},
		{"unknown workload in subset", experimentJob(Params{Workloads: []string{"streamcluster", "not-a-workload"}}),
			unknownWorkload},
		{"unknown simulate workload",
			api.JobSpec{Kind: api.KindSimulate, Workload: "not-a-workload"}, unknownWorkload},
		{"simulate without a workload",
			api.JobSpec{Kind: api.KindSimulate}, "c3d: no workload named and no workload spec set"},
		{"unknown workload with a spec loaded",
			api.JobSpec{Kind: api.KindSimulate, Workload: "not-a-workload", Params: api.Params{Spec: []byte(specDoc)}},
			unknownWorkload + `; the session spec defines "spec-test-mix"`},
		{"ring cannot host 2 sockets", experimentJob(Params{Topology: "ring", Sockets: 2}),
			`c3d: interconnect: topology "ring" hosts 3-16 sockets, not 2`},
		{"no topology hosts 32 sockets", experimentJob(Params{Sockets: 32}),
			"c3d: interconnect: no default topology hosts 32 sockets (max 16); pick one explicitly"},
		{"mesh cannot host 32 sockets", experimentJob(Params{Topology: "mesh", Sockets: 32}),
			`c3d: interconnect: topology "mesh" hosts 2-16 sockets, not 32`},
		{"negative verify sockets", verifyJob(api.VerifySpec{Sockets: -1}), "c3d: negative verify sockets -1"},
		{"negative verify loads", verifyJob(api.VerifySpec{Sockets: 2, LoadsPerCore: -1}), "c3d: negative verify loads -1"},
		{"negative verify stores", verifyJob(api.VerifySpec{StoresPerCore: -2}), "c3d: negative verify stores -2"},
		{"negative verify max_states", verifyJob(api.VerifySpec{MaxStates: -5}), "c3d: negative verify max_states -5"},
		{"first negative verify bound in field order",
			verifyJob(api.VerifySpec{MaxStates: -1, StoresPerCore: -2, LoadsPerCore: -3}), "c3d: negative verify loads -3"},
	}
	for _, c := range cases {
		err := ValidateJobSpec(c.spec)
		if err == nil {
			t.Errorf("%s: ValidateJobSpec accepted %+v", c.name, c.spec)
			continue
		}
		if err.Error() != c.want {
			t.Errorf("%s: error\n got %q\nwant %q", c.name, err, c.want)
		}
		switch c.spec.Kind {
		case api.KindExperiment:
			// Session construction is the same door: it must report the
			// same text for every params-level rejection.
			if _, serr := Params(c.spec.Params).Session(); serr == nil || serr.Error() != c.want {
				t.Errorf("%s: Params.Session error %v, want %q", c.name, serr, c.want)
			}
		case api.KindVerify:
			// So is Session.Verify for verify bounds.
			if _, verr := session(t, Params{}).Verify(t.Context(), VerifyRequest(c.spec.Verify)); verr == nil || verr.Error() != c.want {
				t.Errorf("%s: Session.Verify error %v, want %q", c.name, verr, c.want)
			}
		}
	}

	if _, err := ReadWorkloadSpec("/does/not/exist.json"); err == nil ||
		err.Error() != "c3d: reading workload spec: open /does/not/exist.json: no such file or directory" {
		t.Errorf("unreadable spec document: %v", err)
	}
	if _, err := (Params{Sockets: 4, Design: "c3d", Quick: true}).Session(); err != nil {
		t.Fatalf("valid configuration rejected: %v", err)
	}
}

func experimentJob(p Params) api.JobSpec {
	return api.JobSpec{Kind: api.KindExperiment, Params: api.Params(p)}
}

func verifyJob(v api.VerifySpec) api.JobSpec {
	return api.JobSpec{Kind: api.KindVerify, Verify: v}
}

// TestDefaultSessionMachineConfig pins the machine a default session
// derives: the paper's 4-socket C3D machine at the default scale under the
// workload's preferred placement policy, every other field at its default.
func TestDefaultSessionMachineConfig(t *testing.T) {
	sess, err := Params{}.Session()
	if err != nil {
		t.Fatal(err)
	}
	got, err := sess.MachineConfigFor("streamcluster")
	if err != nil {
		t.Fatal(err)
	}
	want := machine.DefaultConfig(4, machine.C3D)
	want.Scale = workload.DefaultScale
	want.MemPolicy = workload.MustGet("streamcluster").PreferredPolicy
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("default session machine config\n got %+v\nwant %+v", got, want)
	}
}
