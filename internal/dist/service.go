package dist

import (
	"context"
	"fmt"
	"html/template"
	"io"
	"log"
	"net/http"
	"strconv"
	"sync"

	"bgpsim/internal/churn"
	"bgpsim/internal/core"
)

// Submission states.
const (
	// SubmissionQueued means the submission waits for earlier ones.
	SubmissionQueued = "queued"
	// SubmissionRunning means the submission is the active run.
	SubmissionRunning = "running"
	// SubmissionDone means the submission finished; Result holds the
	// rendered artifact.
	SubmissionDone = "done"
	// SubmissionFailed means the submission errored; Error holds why.
	SubmissionFailed = "failed"
)

// SubmitRequest enqueues one run on the service: exactly one of
// Experiment (with Options) or Churn is set.
type SubmitRequest struct {
	// Experiment is a registry ID ("fig3", ...) to run as a figure.
	Experiment string `json:"experiment,omitempty"`
	// Options scales the experiment (ignored for churn submissions).
	Options Options `json:"options,omitempty"`
	// Churn is a churn program to stream.
	Churn *ChurnDesc `json:"churn,omitempty"`
}

// SubmitResponse acknowledges a submission with its queue ID.
type SubmitResponse struct {
	// ID addresses the submission in /v1/query.
	ID int `json:"id"`
}

// LiveWindow is one streamed churn window in a query response, tagged
// with its emitting trial.
type LiveWindow struct {
	// Trial is the emitting churn trial.
	Trial int `json:"trial"`
	// Window is the closed window's metrics.
	Window churn.WindowResult `json:"window"`
}

// SubmissionInfo is the query view of one submission. For running churn
// submissions, Windows and PerNodeSent grow incrementally as windows
// close on the workers — the live metric feed; both are advisory until
// State reaches done, when Result carries the authoritative assembled
// stream.
type SubmissionInfo struct {
	// ID is the queue ID.
	ID int `json:"id"`
	// Kind is "experiment" or "churn".
	Kind string `json:"kind"`
	// Detail names the work: the experiment ID, or the churn program kind.
	Detail string `json:"detail"`
	// State is one of the Submission* constants.
	State string `json:"state"`
	// Error is the failure cause when State is failed.
	Error string `json:"error,omitempty"`
	// Windows lists churn windows streamed so far (set only when the
	// query names a single submission).
	Windows []LiveWindow `json:"windows,omitempty"`
	// PerNodeSent is the cumulative per-router send count across all
	// streamed windows — the live per-router convergence state.
	PerNodeSent []int `json:"per_node_sent,omitempty"`
	// Result is the rendered artifact once done (figure or churn
	// stream; set only when the query names a single submission).
	Result string `json:"result,omitempty"`
}

// QueryResponse lists submissions (GET /v1/query without an id).
type QueryResponse struct {
	// Submissions is every submission in queue order, without the bulky
	// Windows/Result fields.
	Submissions []SubmissionInfo `json:"submissions"`
}

// submission is the service-side record of one queued run.
type submission struct {
	info    SubmissionInfo
	req     SubmitRequest
	windows []LiveWindow
	perNode []int
	result  string
}

// Service promotes a Coordinator into a long-running server: clients
// submit experiments and churn programs over HTTP, a single drain
// goroutine executes them in queue order (preserving the coordinator's
// one-active-run invariant), and /v1/query exposes live per-router
// convergence state and per-window metrics streamed incrementally as
// churn windows close on the workers. Multiple clients can submit and
// poll concurrently; workers connect exactly as they do for one-shot
// coordinators.
type Service struct {
	coord *Coordinator
	log   *log.Logger

	mu      sync.Mutex
	subs    []*submission
	pending chan int // queue IDs in submission order
	active  int      // ID of the running submission, -1 when idle
}

// NewService wraps coord. The coordinator's OnWindow hook is taken over
// by the service; install it before any run starts.
func NewService(coord *Coordinator, logger *log.Logger) *Service {
	if logger == nil {
		logger = log.New(io.Discard, "", 0)
	}
	s := &Service{
		coord:   coord,
		log:     logger,
		pending: make(chan int, 1024),
		active:  -1,
	}
	coord.OnWindow = s.onWindow
	return s
}

// onWindow folds one streamed churn window into the active submission's
// live view. Called under the coordinator mutex; only does slice
// appends under the service mutex.
func (s *Service) onWindow(rep WindowReport) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active < 0 || s.active >= len(s.subs) {
		return
	}
	sub := s.subs[s.active]
	sub.windows = append(sub.windows, LiveWindow{Trial: rep.Trial, Window: rep.Window})
	if len(sub.perNode) < len(rep.PerNodeSent) {
		sub.perNode = append(sub.perNode, make([]int, len(rep.PerNodeSent)-len(sub.perNode))...)
	}
	for i, n := range rep.PerNodeSent {
		sub.perNode[i] += n
	}
}

// Submit enqueues req and returns its queue ID. The run starts once the
// drain loop reaches it.
func (s *Service) Submit(req SubmitRequest) (int, error) {
	if (req.Experiment == "") == (req.Churn == nil) {
		return 0, fmt.Errorf("dist: submission must set exactly one of experiment, churn")
	}
	detail := req.Experiment
	kind := "experiment"
	if req.Churn != nil {
		kind = "churn"
		detail = string(req.Churn.Scenario.Program.Kind)
		if err := req.Churn.Scenario.Validate(); err != nil {
			return 0, err
		}
		if req.Churn.Trials <= 0 {
			return 0, fmt.Errorf("dist: churn submission needs at least one trial")
		}
	} else if _, err := core.Lookup(req.Experiment); err != nil {
		return 0, err
	}
	s.mu.Lock()
	id := len(s.subs)
	s.subs = append(s.subs, &submission{
		info: SubmissionInfo{ID: id, Kind: kind, Detail: detail, State: SubmissionQueued},
		req:  req,
	})
	s.mu.Unlock()
	select {
	case s.pending <- id:
	default:
		s.mu.Lock()
		s.subs[id].info.State = SubmissionFailed
		s.subs[id].info.Error = "submission queue full"
		s.mu.Unlock()
		return 0, fmt.Errorf("dist: submission queue full")
	}
	s.log.Printf("dist: service: submission %d queued (%s %s)", id, kind, detail)
	return id, nil
}

// Run drains the submission queue until ctx is canceled, executing
// submissions sequentially in queue order. Call it in its own goroutine
// next to the HTTP server.
func (s *Service) Run(ctx context.Context) error {
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case id := <-s.pending:
			s.execute(ctx, id)
		}
	}
}

// execute runs one submission to completion.
func (s *Service) execute(ctx context.Context, id int) {
	s.mu.Lock()
	sub := s.subs[id]
	sub.info.State = SubmissionRunning
	s.active = id
	s.mu.Unlock()

	result, err := s.run(ctx, sub.req)

	s.mu.Lock()
	s.active = -1
	if err != nil {
		sub.info.State = SubmissionFailed
		sub.info.Error = err.Error()
	} else {
		sub.info.State = SubmissionDone
		sub.result = result
	}
	s.mu.Unlock()
	s.log.Printf("dist: service: submission %d %s", id, s.Query(id).State)
}

// run executes one submission through the coordinator and renders its
// artifact.
func (s *Service) run(ctx context.Context, req SubmitRequest) (string, error) {
	if req.Churn != nil {
		rr, err := s.coord.RunChurn(ctx, *req.Churn)
		if err != nil {
			return "", err
		}
		return rr.Render(), nil
	}
	exp, err := core.Lookup(req.Experiment)
	if err != nil {
		return "", err
	}
	opts := req.Options.Core()
	opts.Context = ctx
	opts.Sweeper = s.coord.SweeperFor(ctx, exp.ID, opts)
	fig, err := exp.Run(opts)
	if err != nil {
		return "", err
	}
	return fig.Render(), nil
}

// Query snapshots one submission (zero SubmissionInfo if id is unknown).
func (s *Service) Query(id int) SubmissionInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id < 0 || id >= len(s.subs) {
		return SubmissionInfo{}
	}
	sub := s.subs[id]
	info := sub.info
	info.Windows = append([]LiveWindow(nil), sub.windows...)
	info.PerNodeSent = append([]int(nil), sub.perNode...)
	info.Result = sub.result
	return info
}

// List snapshots every submission's summary in queue order.
func (s *Service) List() []SubmissionInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SubmissionInfo, len(s.subs))
	for i, sub := range s.subs {
		out[i] = sub.info
	}
	return out
}

// Handler returns the service HTTP handler: the coordinator's worker
// protocol plus POST /v1/submit, GET /v1/query, and a minimal HTML
// status page at /.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	worker := s.coord.Handler()
	mux.Handle("/v1/lease", worker)
	mux.Handle("/v1/complete", worker)
	mux.Handle("/v1/window", worker)
	mux.Handle("/v1/status", worker)
	mux.HandleFunc("POST /v1/submit", s.handleSubmit)
	mux.HandleFunc("GET /v1/query", s.handleQuery)
	mux.HandleFunc("GET /{$}", s.handleStatusPage)
	return mux
}

// handleSubmit accepts one submission.
func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if !decode(w, r, &req) {
		return
	}
	id, err := s.Submit(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	reply(w, SubmitResponse{ID: id})
}

// handleQuery serves one submission (?id=N) or the full listing.
func (s *Service) handleQuery(w http.ResponseWriter, r *http.Request) {
	if idStr := r.URL.Query().Get("id"); idStr != "" {
		id, err := strconv.Atoi(idStr)
		if err != nil {
			http.Error(w, "dist: bad id: "+err.Error(), http.StatusBadRequest)
			return
		}
		info := s.Query(id)
		if info.Kind == "" {
			http.Error(w, fmt.Sprintf("dist: no submission %d", id), http.StatusNotFound)
			return
		}
		reply(w, info)
		return
	}
	reply(w, QueryResponse{Submissions: s.List()})
}

// statusPage is the minimal human-facing view: coordinator counters and
// the submission queue, plain HTML, no scripts.
var statusPage = template.Must(template.New("status").Parse(`<!DOCTYPE html>
<html><head><title>bgpsim coordinator</title></head><body>
<h1>bgpsim coordinator</h1>
<p>protocol {{.Stats.Protocol}} · dispatched {{.Stats.Dispatched}}{{if .Stats.Active}} · active run: {{.Stats.Done}}/{{.Stats.Total}} trial jobs{{if .Stats.Churn}} (churn){{end}}{{end}}</p>
<table border="1" cellpadding="4">
<tr><th>id</th><th>kind</th><th>detail</th><th>state</th><th>error</th></tr>
{{range .Subs}}<tr><td><a href="/v1/query?id={{.ID}}">{{.ID}}</a></td><td>{{.Kind}}</td><td>{{.Detail}}</td><td>{{.State}}</td><td>{{.Error}}</td></tr>
{{end}}</table>
</body></html>
`))

// handleStatusPage renders the HTML status page.
func (s *Service) handleStatusPage(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_ = statusPage.Execute(w, struct {
		Stats StatusResponse
		Subs  []SubmissionInfo
	}{s.coord.Stats(), s.List()})
}
