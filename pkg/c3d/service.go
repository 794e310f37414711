package c3d

import (
	"fmt"

	"c3d/pkg/c3d/api"
)

// CurrentCapabilities reports what this build of the simulator can run —
// its designs, fabric topologies, experiments and workloads, plus the
// build version — in the wire shape served by GET /v1/capabilities. The
// daemon and the campaign coordinator both publish exactly this document,
// and remote clients use it to validate job specs eagerly, the way
// Params.Session validates locally.
func CurrentCapabilities() api.Capabilities {
	caps := api.Capabilities{Version: Version()}
	for _, d := range Designs() {
		caps.Designs = append(caps.Designs, string(d))
	}
	for _, t := range Topologies() {
		caps.Topologies = append(caps.Topologies, string(t))
	}
	caps.Experiments = Experiments()
	for _, w := range Workloads() {
		caps.Workloads = append(caps.Workloads, w.Name)
	}
	return caps
}

// ValidateJobSpec rejects malformed job specs the way the daemon's
// submission endpoint does, so a queued job can only fail for run-time
// reasons. Building (and discarding) the session runs the SDK's full params
// validation — unknown workloads, out-of-range warm-up, unhostable
// topology/socket shapes — not just the enumerated-field parse. The daemon
// and the campaign coordinator share this one door check.
func ValidateJobSpec(spec api.JobSpec) error {
	sess, err := Params(spec.Params).Session()
	if err != nil {
		return err
	}
	switch spec.Kind {
	case api.KindExperiment:
		known := make(map[string]bool)
		for _, id := range ExperimentIDs() {
			known[id] = true
		}
		for _, id := range spec.Experiments {
			if id != "all" && !known[id] {
				return fmt.Errorf("unknown experiment %q", id)
			}
		}
	case api.KindSimulate:
		// resolveWorkload accepts what Simulate would: a catalog or spec
		// name, or an empty name when the params carry a workload-spec
		// document. An empty name without a spec is still rejected.
		if _, err := sess.resolveWorkload(spec.Workload); err != nil {
			return err
		}
	case api.KindVerify:
		return VerifyRequest(spec.Verify).validate()
	default:
		return fmt.Errorf("unknown job kind %q (want experiment, simulate or verify)", spec.Kind)
	}
	return nil
}
