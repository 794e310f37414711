package campaign

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"c3d/pkg/c3d/api"
)

// Campaign-list pagination bounds, matching the job list in internal/server.
const (
	defaultListLimit = 100
	maxListLimit     = 1000
)

// Handler returns the coordinator's HTTP API:
//
//	GET    /healthz                   liveness + fleet + cache counters
//	GET    /v1/capabilities           the fleet's shared capability document
//	POST   /v1/campaigns              submit an api.CampaignSpec -> api.SubmitResponse
//	GET    /v1/campaigns              list campaign statuses (paginated: ?offset=&limit=)
//	GET    /v1/campaigns/{id}         one campaign's status
//	GET    /v1/campaigns/{id}/results per-job result documents, in submission order
//	DELETE /v1/campaigns/{id}         cancel a campaign
//
// Errors use the same uniform api.ErrorEnvelope as the worker daemons;
// admission rejections answer 429 with code rate_limited, except a campaign
// larger than the admission burst, which answers 400 invalid_spec.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", c.handleHealth)
	mux.HandleFunc("GET /v1/capabilities", c.handleCapabilities)
	mux.HandleFunc("POST /v1/campaigns", c.handleSubmit)
	mux.HandleFunc("GET /v1/campaigns", c.handleList)
	mux.HandleFunc("GET /v1/campaigns/{id}", c.handleStatus)
	mux.HandleFunc("GET /v1/campaigns/{id}/results", c.handleResults)
	mux.HandleFunc("DELETE /v1/campaigns/{id}", c.handleCancel)
	return mux
}

func (c *Coordinator) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.Health())
}

func (c *Coordinator) handleCapabilities(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.Capabilities())
}

func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec api.CampaignSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, &api.Error{
			Code:       api.CodeInvalidSpec,
			Message:    fmt.Sprintf("decoding campaign spec: %v", err),
			HTTPStatus: http.StatusBadRequest,
		})
		return
	}
	resp, err := c.Submit(spec)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, resp)
}

func (c *Coordinator) handleList(w http.ResponseWriter, r *http.Request) {
	offset := queryInt(r, "offset", 0)
	limit := queryInt(r, "limit", defaultListLimit)
	if limit <= 0 {
		limit = defaultListLimit
	}
	if limit > maxListLimit {
		limit = maxListLimit
	}
	writeJSON(w, http.StatusOK, c.List(offset, limit))
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := c.Status(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleResults serialises the results envelope by hand: the per-job result
// documents must reach the client byte-for-byte as the workers produced them
// (the whole point of deterministic assembly), and an indenting encoder
// would reformat the embedded raw documents. json.RawMessage round-trips
// verbatim through json.Unmarshal on the client side.
func (c *Coordinator) handleResults(w http.ResponseWriter, r *http.Request) {
	res, err := c.Results(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "{\"id\":%q,\"results\":[", res.ID)
	for i, doc := range res.Results {
		if i > 0 {
			buf.WriteByte(',')
		}
		buf.Write(doc)
	}
	buf.WriteString("]}\n")
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(buf.Bytes())
}

func (c *Coordinator) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, err := c.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func queryInt(r *http.Request, key string, def int) int {
	v := r.URL.Query().Get(key)
	if v == "" {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return def
	}
	return n
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeError emits the uniform envelope, taking the status from the
// *api.Error when the coordinator produced one.
func writeError(w http.ResponseWriter, err error) {
	var apiErr *api.Error
	if !errors.As(err, &apiErr) {
		apiErr = &api.Error{Code: api.CodeInternal, Message: err.Error(), HTTPStatus: http.StatusInternalServerError}
	}
	status := apiErr.HTTPStatus
	if status == 0 {
		status = http.StatusInternalServerError
	}
	writeJSON(w, status, api.ErrorEnvelope{Error: apiErr})
}
