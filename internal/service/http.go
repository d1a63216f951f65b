package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"strconv"
	"strings"

	"xbarsec/api"
	"xbarsec/internal/experiment/engine"
	"xbarsec/internal/memo"
	"xbarsec/internal/oracle"
	"xbarsec/internal/report"
	"xbarsec/internal/tensor"
)

// Handler returns the service's HTTP JSON API — protocol v2, with every
// request/response body and error envelope defined by the public
// xbarsec/api package (see its package comment for the endpoint table
// and versioning policy). Every versioned route hangs off
// api.PathPrefix, so a protocol bump moves the whole surface at once:
//
//	GET    /healthz                    liveness probe
//	GET    /v2/version                 protocol version + registry hash
//	GET    /v2/victims                 registered victims with serving stats
//	POST   /v2/sessions                open an attacker session
//	GET    /v2/sessions/{id}           session accounting
//	DELETE /v2/sessions/{id}           close a session
//	POST   /v2/sessions/{id}/query     one oracle query (JSON or binary body)
//	POST   /v2/sessions/{id}/queries   a batched slice of oracle queries
//	                                   (JSON or binary body)
//	POST   /v2/campaigns               run (or fetch cached) campaign job
//	POST   /v2/extract                 run (or fetch cached) extraction job
//	GET    /v2/experiments             registered experiments with axes
//	POST   /v2/experiments             launch an experiment job (async;
//	                                   ?wait=1 blocks for the result)
//	GET    /v2/experiments/jobs/{id}   poll an experiment job
//	GET    /v2/stats                   service snapshot (?format=csv for CSV)
//	GET    /v2/cluster                 static cluster membership + ring hash
//	GET    /v2/artifacts/{id}          spilled artifact by content address
//	GET    /v2/artifacts/{id}/proof    its Merkle provenance chain
//	GET    /v2/metrics                 Prometheus text exposition
//
// Every handler is safe for concurrent use — the service layer does the
// synchronization, the handlers only translate between api types and
// service calls.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, api.Health{Status: "ok"})
	})
	p := api.PathPrefix
	mux.HandleFunc("GET "+p+"/version", s.handleVersion)
	mux.HandleFunc("GET "+p+"/victims", s.handleVictims)
	mux.HandleFunc("POST "+p+"/sessions", s.handleOpenSession)
	mux.HandleFunc("GET "+p+"/sessions/{id}", s.handleSessionInfo)
	mux.HandleFunc("DELETE "+p+"/sessions/{id}", s.handleCloseSession)
	mux.HandleFunc("POST "+p+"/sessions/{id}/query", s.handleQuery)
	mux.HandleFunc("POST "+p+"/sessions/{id}/queries", s.handleQueryBatch)
	mux.HandleFunc("POST "+p+"/campaigns", s.handleCampaign)
	mux.HandleFunc("POST "+p+"/extract", s.handleExtract)
	mux.HandleFunc("GET "+p+"/experiments", s.handleExperimentList)
	mux.HandleFunc("POST "+p+"/experiments", s.handleExperimentLaunch)
	mux.HandleFunc("GET "+p+"/experiments/jobs/{id}", s.handleExperimentJob)
	mux.HandleFunc("GET "+p+"/stats", s.handleStats)
	mux.HandleFunc("GET "+p+"/cluster", s.handleCluster)
	mux.HandleFunc("GET "+p+"/artifacts/{id}", s.handleArtifact)
	mux.HandleFunc("GET "+p+"/artifacts/{id}/proof", s.handleArtifactProof)
	mux.HandleFunc("GET "+p+"/metrics", s.handleMetrics)
	return mux
}

// writeJSON marshals v before committing the status, so a value JSON
// cannot carry (a non-finite float, say) becomes a typed internal
// envelope instead of a 200 with an empty body. The trailing newline
// keeps the bytes json.Encoder wrote.
func writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		status = api.CodeInternal.HTTPStatus()
		data, _ = json.Marshal(&api.Error{
			Code:    api.CodeInternal,
			Message: "encoding response",
			Detail:  err.Error(),
		})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(append(data, '\n'))
}

// errorCode maps a service error onto its protocol code — the one
// mapping from the internal error taxonomy to the wire (the HTTP status
// is derived from the code, api.ErrorCode.HTTPStatus).
func errorCode(err error) api.ErrorCode {
	switch {
	case errors.Is(err, ErrVictimUnknown):
		return api.CodeUnknownVictim
	case errors.Is(err, ErrSessionUnknown):
		return api.CodeUnknownSession
	case errors.Is(err, ErrExperimentUnknown):
		return api.CodeUnknownExperiment
	case errors.Is(err, ErrJobUnknown):
		return api.CodeUnknownJob
	case errors.Is(err, ErrArtifactUnknown):
		return api.CodeUnknownArtifact
	case errors.Is(err, oracle.ErrBudgetExhausted):
		return api.CodeBudgetExhausted
	case errors.Is(err, ErrSessionLimit):
		return api.CodeSessionLimit
	case errors.Is(err, ErrJobLimit):
		return api.CodeJobLimit
	case errors.Is(err, ErrUnavailable):
		return api.CodeUnavailable
	case errors.Is(err, ErrServiceClosed):
		return api.CodeServiceClosed
	case errors.Is(err, ErrVictimClosed):
		return api.CodeVictimClosed
	case errors.Is(err, errBadRequest), errors.Is(err, oracle.ErrNonFinite):
		return api.CodeBadRequest
	default:
		return api.CodeInternal
	}
}

// apiError wraps a service error into the wire envelope. An error that
// already is an *api.Error (a decode failure, say) passes through
// untouched.
func apiError(err error) *api.Error {
	var e *api.Error
	if errors.As(err, &e) {
		return e
	}
	var pe *memo.PanicError
	if errors.As(err, &pe) {
		// A recovered job panic: the code says "internal", the detail
		// says what blew up — visible through GET jobs/{id}, no log dig.
		return &api.Error{
			Code:    api.CodeInternal,
			Message: "experiment job panicked",
			Detail:  fmt.Sprint(pe.Value),
		}
	}
	var re *RedirectError
	if errors.As(err, &re) {
		// A ring miss: the envelope names the owner so the SDK (or any
		// client) can re-issue the request there instead of retrying here.
		return &api.Error{
			Code:       api.CodeNodeRedirect,
			Message:    fmt.Sprintf("key owned by node %s", re.NodeID),
			Detail:     re.Key,
			RedirectTo: re.URL,
		}
	}
	out := &api.Error{Code: errorCode(err), Message: err.Error()}
	var ue *UnavailableError
	if errors.As(err, &ue) {
		out.RetryAfter = ue.RetryAfter
	}
	return out
}

// writeError emits the uniform machine-readable error envelope with the
// status its code implies, mirroring any RetryAfter hint into the
// standard Retry-After header (the mapping is part of the protocol).
func writeError(w http.ResponseWriter, err error) {
	e := apiError(err)
	if e.RetryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(e.RetryAfter))
	}
	writeJSON(w, e.Code.HTTPStatus(), e)
}

// errBadRequest marks client-side validation failures for status
// mapping.
var errBadRequest = errors.New("bad request")

func badRequestf(format string, args ...any) error {
	return fmt.Errorf(format+": %w", append(args, errBadRequest)...)
}

// maxRequestBody bounds every request body BEFORE it is decoded: the
// allocation cap the batch/option limits assume. 128 MiB fits the
// largest legitimate payload (a maxQueryBatch slice of 784-dim inputs
// is ~60 MiB of JSON) with headroom; anything larger is a typed 400,
// so one unauthenticated request can never materialize an unbounded
// input slab.
const maxRequestBody = 128 << 20

func decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return &api.Error{
			Code:    api.CodeBadRequest,
			Message: "malformed request body",
			Detail:  err.Error(),
		}
	}
	return nil
}

// isF64Body reports whether a request's Content-Type names the binary
// query body; anything else, including no Content-Type, is JSON.
func isF64Body(r *http.Request) bool {
	mt, _, err := mime.ParseMediaType(r.Header.Get("Content-Type"))
	return err == nil && mt == api.MediaTypeF64
}

// decodeF64Rows reads a binary query body through the same size cap as
// JSON bodies and decodes it, as it arrives, into 1..maxRows rows of
// exactly cols finite values (api.ReadF64Rows). Memory grows only with
// the bytes that arrive, never from a declared length (Content-Length or
// the body's header): the decoded rows hold at most twice the bytes
// received, plus a fixed read buffer, so a client that declares a large
// body and sends little pins little memory. On any failure the rest of
// the body is drained unstored, so the typed reply still reaches the
// client on a clean connection; a body past the size cap reports that
// instead. Failures are bad_request envelopes, raised before any budget
// is reserved.
func decodeF64Rows(w http.ResponseWriter, r *http.Request, cols, maxRows int) ([][]float64, error) {
	body := http.MaxBytesReader(w, r.Body, maxRequestBody)
	rows, err := api.ReadF64Rows(body, cols, maxRows)
	if err != nil {
		if _, drainErr := io.Copy(io.Discard, body); drainErr != nil {
			err = drainErr
		}
		return nil, &api.Error{
			Code:    api.CodeBadRequest,
			Message: "malformed request body",
			Detail:  err.Error(),
		}
	}
	return rows, nil
}

// RegistryHash digests the experiment registry: sha256 over the sorted
// names. Two servers with equal hashes accept the same experiment
// specs. Exposed so clients and tests can compute the expected value.
func RegistryHash() string {
	sum := sha256.Sum256([]byte(strings.Join(engine.Names(), "\n")))
	return hex.EncodeToString(sum[:])
}

func (s *Service) handleVersion(w http.ResponseWriter, r *http.Request) {
	names := engine.Names()
	writeJSON(w, http.StatusOK, api.VersionInfo{
		Version:         api.VersionString(),
		Major:           api.Major,
		Minor:           api.Minor,
		Experiments:     len(names),
		ExperimentsHash: RegistryHash(),
		TensorBackend:   tensor.ActiveName(),
	})
}

func (s *Service) handleVictims(w http.ResponseWriter, r *http.Request) {
	victims := s.Stats().Victims
	if victims == nil {
		victims = []api.VictimStats{}
	}
	writeJSON(w, http.StatusOK, victims)
}

func sessionInfo(sess *Session) api.Session {
	return api.Session{
		ID:        sess.ID(),
		Victim:    sess.Victim(),
		Mode:      api.Mode(sess.Mode().String()),
		Budget:    sess.Budget(),
		Queries:   sess.Queries(),
		Remaining: sess.Remaining(),
	}
}

func (s *Service) handleOpenSession(w http.ResponseWriter, r *http.Request) {
	var req api.OpenSessionRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	cfg := SessionConfig{
		MeasurePower:  req.MeasurePower,
		PowerNoiseStd: req.PowerNoiseStd,
		Budget:        req.Budget,
	}
	if req.Mode != "" {
		mode, err := oracle.ParseMode(string(req.Mode))
		if err != nil {
			writeError(w, badRequestf("%v", err))
			return
		}
		cfg.Mode = mode
	}
	sess, err := s.OpenSession(req.Victim, cfg)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, sessionInfo(sess))
}

func (s *Service) handleSessionInfo(w http.ResponseWriter, r *http.Request) {
	sess, err := s.Session(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, sessionInfo(sess))
}

func (s *Service) handleCloseSession(w http.ResponseWriter, r *http.Request) {
	if err := s.CloseSession(r.PathValue("id")); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, api.SessionClosed{Status: "closed"})
}

func (s *Service) handleQuery(w http.ResponseWriter, r *http.Request) {
	sess, err := s.Session(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	var input []float64
	if isF64Body(r) {
		rows, err := decodeF64Rows(w, r, sess.victim.Inputs(), 1)
		if err != nil {
			writeError(w, err)
			return
		}
		input = rows[0]
	} else {
		var req api.QueryRequest
		if err := decodeJSON(w, r, &req); err != nil {
			writeError(w, err)
			return
		}
		input = req.Input
	}
	// decodeF64Rows already held a binary body to the victim's width, so
	// this check can fail only for a JSON body.
	if len(input) != sess.victim.Inputs() {
		writeError(w, badRequestf("input length %d, want %d", len(input), sess.victim.Inputs()))
		return
	}
	resp, err := sess.Query(input)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, api.QueryResponse{
		Label:     resp.Label,
		Raw:       resp.Raw,
		Power:     resp.Power,
		Queries:   sess.Queries(),
		Remaining: sess.Remaining(),
	})
}

// maxQueryBatch bounds one batched request; a single unauthenticated
// request must not be able to make the server materialize an unbounded
// input slab.
const maxQueryBatch = 4096

func (s *Service) handleQueryBatch(w http.ResponseWriter, r *http.Request) {
	sess, err := s.Session(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	var inputs [][]float64
	if isF64Body(r) {
		if inputs, err = decodeF64Rows(w, r, sess.victim.Inputs(), maxQueryBatch); err != nil {
			writeError(w, err)
			return
		}
	} else {
		var req api.QueryBatchRequest
		if err := decodeJSON(w, r, &req); err != nil {
			writeError(w, err)
			return
		}
		inputs = req.Inputs
	}
	// decodeF64Rows already held a binary body to 1..maxQueryBatch rows
	// of the victim's width, so these checks can fail only for a JSON
	// body; a binary body breaking them drew its own bad_request there.
	if len(inputs) == 0 {
		writeError(w, badRequestf("empty query batch"))
		return
	}
	if len(inputs) > maxQueryBatch {
		writeError(w, badRequestf("batch of %d queries exceeds the limit %d", len(inputs), maxQueryBatch))
		return
	}
	// Validate every input before any budget charge: a malformed batch is
	// rejected whole, exactly like a malformed single query.
	for i, u := range inputs {
		if len(u) != sess.victim.Inputs() {
			writeError(w, badRequestf("input %d length %d, want %d", i, len(u), sess.victim.Inputs()))
			return
		}
	}
	resps, err := sess.QueryBatch(inputs)
	if err != nil && !errors.Is(err, oracle.ErrBudgetExhausted) {
		writeError(w, err)
		return
	}
	if len(resps) == 0 && err != nil {
		// Nothing was admitted: the whole batch fails exactly as a single
		// query against an exhausted session would.
		writeError(w, err)
		return
	}
	out := api.QueryBatchResponse{
		Results:   make([]api.QueryOutcome, len(inputs)),
		Queries:   sess.Queries(),
		Remaining: sess.Remaining(),
	}
	for i := range inputs {
		if i < len(resps) {
			out.Results[i] = api.QueryOutcome{
				Label: resps[i].Label,
				Raw:   resps[i].Raw,
				Power: resps[i].Power,
			}
		} else {
			out.Results[i] = api.QueryOutcome{Error: apiError(err)}
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Service) handleCampaign(w http.ResponseWriter, r *http.Request) {
	var req api.CampaignRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	mode, err := oracle.ParseMode(string(req.Mode))
	if err != nil {
		writeError(w, badRequestf("%v", err))
		return
	}
	res, err := s.RunCampaign(CampaignSpec{
		Victim:          req.Victim,
		Mode:            mode,
		Seed:            req.Seed,
		Queries:         req.Queries,
		Lambda:          req.Lambda,
		SurrogateEpochs: req.SurrogateEpochs,
		AttackEps:       req.AttackEps,
	})
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Service) handleExtract(w http.ResponseWriter, r *http.Request) {
	var spec api.ExtractRequest
	if err := decodeJSON(w, r, &spec); err != nil {
		writeError(w, err)
		return
	}
	res, err := s.RunExtract(spec)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Service) handleExperimentList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Experiments(api.ExperimentSpec{}))
}

func jobInfo(j *ExperimentJob) api.Job {
	out := api.Job{ID: j.ID(), Spec: j.Spec()}
	status, res, err := j.Snapshot()
	out.Status = status
	out.Result = res
	if err != nil {
		out.Error = err.Error()
	}
	return out
}

func (s *Service) handleExperimentLaunch(w http.ResponseWriter, r *http.Request) {
	var spec api.ExperimentSpec
	if err := decodeJSON(w, r, &spec); err != nil {
		writeError(w, err)
		return
	}
	job, err := s.LaunchExperiment(spec)
	if err != nil {
		writeError(w, err)
		return
	}
	if r.URL.Query().Get("wait") != "" {
		// Honor client disconnects: the job keeps running (its result
		// lands in the artifact cache and stays pollable by id), but the
		// handler goroutine must not stay pinned to a dead connection.
		select {
		case <-job.Done():
			writeJSON(w, http.StatusOK, jobInfo(job))
		case <-r.Context().Done():
		}
		return
	}
	writeJSON(w, http.StatusAccepted, jobInfo(job))
}

func (s *Service) handleExperimentJob(w http.ResponseWriter, r *http.Request) {
	job, err := s.ExperimentJobByID(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, jobInfo(job))
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.Stats()
	if r.URL.Query().Get("format") != "csv" {
		writeJSON(w, http.StatusOK, st)
		return
	}
	tbl := &report.Table{
		Header: []string{"victim", "inputs", "outputs", "noisy", "requests", "batches", "max_batch", "queue_depth_peak", "open_sessions"},
	}
	for _, v := range st.Victims {
		tbl.AddRow(v.Name,
			fmt.Sprint(v.Inputs), fmt.Sprint(v.Outputs), fmt.Sprint(v.Noisy),
			fmt.Sprint(v.Requests), fmt.Sprint(v.Batches), fmt.Sprint(v.MaxBatch),
			fmt.Sprint(v.QueueDepthPeak), fmt.Sprint(v.OpenSessions))
	}
	w.Header().Set("Content-Type", "text/csv")
	if err := tbl.WriteCSV(w); err != nil {
		// Headers already sent; nothing recoverable.
		return
	}
}
