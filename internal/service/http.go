package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"
)

// maxSubmit bounds a POST /jobs body; a JobSpec is a few hundred bytes.
const maxSubmit = 1 << 20

// maxFrame bounds one line of a samples body (a line carrying a large
// sample batch is the biggest legitimate one).
const maxFrame = 8 << 20

// Handler returns the daemon's HTTP surface:
//
//	POST /jobs                     submit a JobSpec (JSON body): 202 {"accepted":id}
//	GET  /jobs/{id}                one verdict: 200, 202 {"pending":true}, 404 unknown
//	GET  /jobs/{id}?wait=30s       the same, first waiting up to 30s for the verdict
//	POST /jobs/{id}/samples        feed a stream job (JSONL body, see below)
//	GET  /verdicts                 first page of decided verdicts (JSON array)
//	GET  /verdicts?after=N&limit=M verdicts with seq > N, at most M of them
//	GET  /healthz                  health JSON: ok|degraded|draining, queue
//	                               depths, open breakers, journal lag
//	                               (503 while draining)
//	GET  /metrics                  service counters, Prometheus text format
//
// A refused request gets the status statusOf gives its error. A
// submit whose answer was lost may be resent: a 409 on the resend
// means the first send was admitted.
//
// A samples body is read line by line: each line is one JSON array of
// {"t_us":..., "scrout":...} objects and is fed as one Service.Feed
// batch, so one request carries a long-lived, ordered stream. The
// answer comes once, at the end of the body or at the first refused
// line: {"taken":n} counts the samples accepted, always whole lines,
// and a refusal adds an error status and message. The feeder resends
// from the line after those n samples. Feeding is asynchronous; read
// the verdict with GET /jobs/{id}.
//
// The verdict list is always bounded: with no limit it serves at most
// DefaultVerdictsLimit (1000) verdicts, and limit is capped at
// MaxVerdictsLimit — a long-running daemon holding millions of
// verdicts can no longer OOM a naive scraper. Each verdict carries a
// dense "seq" cursor; page by passing the last seq as after until a
// short page comes back. When more verdicts remain past the page the
// response carries the X-More: true header.
func Handler(svc *Service) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		var js JobSpec
		err := decodeOne(http.MaxBytesReader(w, r.Body, maxSubmit), &js)
		if err == nil {
			err = svc.Submit(js)
		}
		if err != nil {
			http.Error(w, err.Error(), statusOf(err))
			return
		}
		writeJSON(w, http.StatusAccepted, map[string]string{"accepted": js.ID})
	})

	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		var wait time.Duration
		if s := r.URL.Query().Get("wait"); s != "" {
			d, err := time.ParseDuration(s)
			if err != nil || d < 0 {
				http.Error(w, "wait must be a non-negative duration, such as 30s", http.StatusBadRequest)
				return
			}
			wait = d
		}
		id := r.PathValue("id")
		v, ok, err := svc.Verdict(id)
		if err == nil && !ok && wait > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), wait)
			v, err = svc.Wait(ctx, id)
			cancel()
			ok = err == nil
			if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
				err = nil // the wait ran out: still pending
			}
		}
		switch {
		case err != nil:
			http.Error(w, err.Error(), statusOf(err))
		case !ok:
			writeJSON(w, http.StatusAccepted, map[string]bool{"pending": true})
		default:
			writeJSON(w, http.StatusOK, v)
		}
	})

	mux.HandleFunc("POST /jobs/{id}/samples", func(w http.ResponseWriter, r *http.Request) {
		taken, err := feedLines(svc, r.PathValue("id"), r.Body)
		resp := struct {
			Taken int    `json:"taken"`
			Error string `json:"error,omitempty"`
		}{Taken: taken}
		status := http.StatusOK
		if err != nil {
			status, resp.Error = statusOf(err), err.Error()
		}
		writeJSON(w, status, resp)
	})

	mux.HandleFunc("GET /verdicts", func(w http.ResponseWriter, r *http.Request) {
		var after int64
		if s := r.URL.Query().Get("after"); s != "" {
			n, err := strconv.ParseInt(s, 10, 64)
			if err != nil || n < 0 {
				http.Error(w, "after must be a non-negative verdict seq", http.StatusBadRequest)
				return
			}
			after = n
		}
		var limit int
		if s := r.URL.Query().Get("limit"); s != "" {
			n, err := strconv.Atoi(s)
			if err != nil || n <= 0 {
				http.Error(w, "limit must be a positive integer", http.StatusBadRequest)
				return
			}
			limit = n
		}
		page, more := svc.VerdictsPage(after, limit)
		if more {
			w.Header().Set("X-More", "true")
		}
		writeJSON(w, http.StatusOK, page)
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		h := svc.Health()
		// "draining" is 503 so load balancers stop routing to a daemon
		// on its way out; "degraded" (open breakers, lagging journal) is
		// still 200 — serving, but worth a look.
		status := http.StatusOK
		if h.Status == "draining" {
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, status, h)
	})

	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		snap := svc.Counters()
		names := make([]string, 0, len(snap.Counters))
		for n := range snap.Counters {
			names = append(names, n)
		}
		sort.Strings(names)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		for _, n := range names {
			// A Prometheus metric name has no dots.
			pn := strings.ReplaceAll(n, ".", "_")
			fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", pn, pn, snap.Counters[n])
		}
	})

	return mux
}

// feedLines feeds each non-blank line of body to the stream job id as
// one sample batch, stopping at the first line that does not decode or
// that Feed refuses. taken counts the samples of the lines accepted.
func feedLines(svc *Service, id string, body io.Reader) (taken int, err error) {
	sc := bufio.NewScanner(body)
	sc.Buffer(nil, maxFrame)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var batch []StreamSample
		if err := decodeOne(bytes.NewReader(line), &batch); err != nil {
			return taken, err
		}
		if err := svc.Feed(id, batch); err != nil {
			return taken, err
		}
		taken += len(batch)
	}
	return taken, sc.Err()
}

// decodeOne decodes exactly one JSON value from r into v. A field v
// does not have, or anything after the value, is an error: input that
// would otherwise be dropped in silence — a misspelt "alpha" admitting
// a job at the default level — fails at the door instead.
func decodeOne(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	switch err := dec.Decode(new(json.RawMessage)); err {
	case io.EOF:
		return nil
	case nil:
		return errors.New("service: body holds more than one JSON value")
	default:
		return err
	}
}

// statusOf maps an ingress error onto its HTTP status: 503 for "retry
// later" (a full queue or backlog, the residency quota, a draining
// daemon), 409 for a request at odds with a job's state, 404 for an
// unknown job, 500 for a failed journal append, 413 for an over-long
// body or samples line, and 400 for the rest — a bad sample, a job
// that fails validation, a body that does not decode.
func statusOf(err error) int {
	var tooLarge *http.MaxBytesError
	switch {
	case errors.Is(err, ErrBusy), errors.Is(err, ErrBacklog),
		errors.Is(err, ErrDraining), errors.Is(err, ErrQuota):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrDuplicate), errors.Is(err, ErrNotStream):
		return http.StatusConflict
	case errors.Is(err, ErrUnknownJob):
		return http.StatusNotFound
	case errors.Is(err, ErrJournal):
		return http.StatusInternalServerError
	case errors.As(err, &tooLarge), errors.Is(err, bufio.ErrTooLong):
		return http.StatusRequestEntityTooLarge
	default:
		return http.StatusBadRequest
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
