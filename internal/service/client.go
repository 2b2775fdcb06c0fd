package service

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"encoding/json"
)

// Client is the Go client for a tssd daemon. Construct it with NewClient and
// functional options:
//
//	cl := service.NewClient("http://localhost:7077",
//		service.WithToken("s3cret"),
//		service.WithHTTPClient(&http.Client{Timeout: 0}))
//
// The zero option set uses http.DefaultClient, no auth, and a default
// User-Agent.
type Client struct {
	base      string
	http      *http.Client
	token     string
	userAgent string
	retry     RetryPolicy
}

// ClientOption configures a Client at construction.
type ClientOption func(*Client)

// WithToken sets the bearer token sent as `Authorization: Bearer <token>` on
// every request — required against a daemon running with an auth config.
func WithToken(token string) ClientOption {
	return func(c *Client) { c.token = token }
}

// WithHTTPClient overrides the underlying *http.Client (timeouts, custom
// transports). nil restores http.DefaultClient.
func WithHTTPClient(h *http.Client) ClientOption {
	return func(c *Client) { c.http = h }
}

// WithUserAgent overrides the User-Agent header.
func WithUserAgent(ua string) ClientOption {
	return func(c *Client) { c.userAgent = ua }
}

// WithRetry makes the client retry failed calls under the given policy.
//
// A call is retried only when it failed in a way the daemon itself marks as
// transient: a transport-level error (connection refused/reset mid-restart —
// *url.Error) or an API error whose envelope carries `retryable: true` (503
// queue-full, draining, 429 quota). Terminal rejections (bad spec, auth,
// not-found) fail immediately. Retrying is safe because the API is
// idempotent by construction — submissions are content-addressed, so a
// replayed Submit coalesces with or cache-hits the first attempt rather than
// running the job twice.
//
// With a retry policy installed, Wait additionally survives a severed event
// stream by reconnecting (the job's status is re-checked between attempts),
// so a watcher rides through a dispatcher restart. cmd/tssim and cmd/tsbench
// -remote use CLIRetry.
func WithRetry(p RetryPolicy) ClientOption {
	return func(c *Client) { c.retry = p }
}

// NewClient returns a client for the daemon at base.
func NewClient(base string, opts ...ClientOption) *Client {
	c := &Client{
		base:      strings.TrimRight(base, "/"),
		userAgent: "tssd-client/1",
	}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// Base returns the daemon root URL this client targets.
func (c *Client) Base() string { return c.base }

func (c *Client) httpClient() *http.Client {
	if c.http != nil {
		return c.http
	}
	return http.DefaultClient
}

// newRequest builds a request with the client's standing headers applied.
func (c *Client) newRequest(ctx context.Context, method, path string, body io.Reader) (*http.Request, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return nil, err
	}
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	if c.userAgent != "" {
		req.Header.Set("User-Agent", c.userAgent)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return req, nil
}

// retryable reports whether err is worth retrying: a transport error (the
// daemon was unreachable or the connection died — *url.Error) or an API
// error the daemon explicitly marked transient in its envelope.
func retryable(err error) bool {
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.Retryable
	}
	var ue *url.Error
	return errors.As(err, &ue)
}

// call sends one API request under the client's retry policy, whose jitter
// stream is seeded by the daemon URL and path, so concurrent calls through
// one client don't share a delay schedule. Every try builds the request
// afresh from the once-encoded JSON body (nil sends none) and the dispatch
// chain via (see DispatchPathHeader). A non-2xx answer becomes its
// *APIError; a 2xx body decodes into out, which may be nil (body discarded)
// or a *[]byte (raw bytes).
func (c *Client) call(ctx context.Context, method, path string, via []string, body, out any) error {
	var b []byte
	if body != nil {
		var err error
		if b, err = json.Marshal(body); err != nil {
			return err
		}
	}
	return c.retry.do(ctx, c.base+path, retryable, func() error {
		var r io.Reader
		if b != nil {
			r = bytes.NewReader(b)
		}
		req, err := c.newRequest(ctx, method, path, r)
		if err != nil {
			return err
		}
		if len(via) > 0 {
			req.Header.Set(DispatchPathHeader, strings.Join(via, ","))
		}
		resp, err := c.httpClient().Do(req)
		if err != nil {
			return err
		}
		if resp.StatusCode < 200 || resp.StatusCode >= 300 {
			return decodeAPIError(resp)
		}
		defer resp.Body.Close()
		switch out := out.(type) {
		case nil:
			return nil
		case *[]byte:
			*out, err = io.ReadAll(resp.Body)
			return err
		}
		return json.NewDecoder(resp.Body).Decode(out)
	})
}

// get is call for a GET, which sends no body.
func (c *Client) get(ctx context.Context, path string, out any) error {
	return c.call(ctx, http.MethodGet, path, nil, nil, out)
}

// DispatchPathHeader carries the chain of dispatcher instance IDs a job has
// passed through (comma-separated). A daemon that finds its own instance in
// the incoming chain rejects the submission: the fleet topology contains a
// dispatch cycle that would otherwise coalesce a job with itself and hang.
const DispatchPathHeader = "X-Tssd-Dispatch-Path"

// Submit posts a job spec and returns the accepted job's status (which is
// already terminal for cache hits).
func (c *Client) Submit(ctx context.Context, spec *JobSpec) (*SubmitStatus, error) {
	return c.SubmitVia(ctx, spec, nil)
}

// SubmitVia is Submit carrying the dispatch chain that routed the job here
// (used by fleet dispatchers relaying to workers; see DispatchPathHeader).
func (c *Client) SubmitVia(ctx context.Context, spec *JobSpec, via []string) (*SubmitStatus, error) {
	var st SubmitStatus
	if err := c.call(ctx, http.MethodPost, "/v1/jobs", via, spec, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Job fetches a job's current status (result included once done).
func (c *Client) Job(ctx context.Context, id string) (*SubmitStatus, error) {
	var st SubmitStatus
	if err := c.get(ctx, "/v1/jobs/"+id, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// JobFilter selects and pages the job listing (GET /v1/jobs).
type JobFilter struct {
	// Status keeps only jobs in that state (queued, running, done, failed,
	// cancelled); empty keeps all.
	Status string
	// Tenant keeps only jobs submitted by that tenant; empty keeps all.
	Tenant string
	// Limit bounds the page size (server default 100, max 1000).
	Limit int
	// After resumes a listing after the given job ID — pass the previous
	// page's NextAfter cursor.
	After string
}

// JobList is one page of the job listing.
type JobList struct {
	// Jobs are the matching jobs in submission order (results elided; fetch
	// per job).
	Jobs []SubmitStatus `json:"jobs"`
	// NextAfter, when set, is the cursor for the next page: the listing
	// stopped at Limit with more jobs remaining.
	NextAfter string `json:"next_after,omitempty"`
}

// Jobs lists the daemon's jobs with optional filtering and deterministic
// cursor pagination.
func (c *Client) Jobs(ctx context.Context, f JobFilter) (*JobList, error) {
	q := url.Values{}
	if f.Status != "" {
		q.Set("status", f.Status)
	}
	if f.Tenant != "" {
		q.Set("tenant", f.Tenant)
	}
	if f.Limit > 0 {
		q.Set("limit", strconv.Itoa(f.Limit))
	}
	if f.After != "" {
		q.Set("after", f.After)
	}
	path := "/v1/jobs"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var list JobList
	if err := c.get(ctx, path, &list); err != nil {
		return nil, err
	}
	return &list, nil
}

// Cancel requests cooperative cancellation of a job (DELETE /v1/jobs/{id})
// and returns the job's status as of the request. Cancellation is
// idempotent: a job that already reached a terminal state is left untouched
// and its settled status is returned, so repeated Cancels converge.
func (c *Client) Cancel(ctx context.Context, id string) (*SubmitStatus, error) {
	var st SubmitStatus
	if err := c.call(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Result fetches a finished job's raw canonical result bytes — byte-identical
// to RunSpec of the same spec, whether simulated or served from cache.
func (c *Client) Result(ctx context.Context, id string) ([]byte, error) {
	var out []byte
	if err := c.get(ctx, "/v1/jobs/"+id+"/result", &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Stats fetches the daemon's /stats counters.
func (c *Client) Stats(ctx context.Context) (*ServerStats, error) {
	var st ServerStats
	if err := c.get(ctx, "/stats", &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Event is one Server-Sent Event from a job's event stream.
type Event struct {
	// Type is status, progress, log, or a terminal result, error, or
	// cancelled.
	Type string
	// Data is the event's JSON payload.
	Data []byte
}

// Events subscribes to a job's SSE stream and invokes fn for every event
// until the stream ends (after a terminal result/error/cancelled event), fn
// returns an error, or ctx is cancelled. Cancellation aborts the stream
// promptly even while the read is blocked waiting for the server's next
// event: a watchdog closes the response body the moment ctx is done, rather
// than relying on the transport to notice between reads.
func (c *Client) Events(ctx context.Context, id string, fn func(Event) error) error {
	req, err := c.newRequest(ctx, http.MethodGet, "/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeAPIError(resp)
	}
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-ctx.Done():
			resp.Body.Close() // unblocks the scanner mid-read
		case <-watchDone:
		}
	}()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	var ev Event
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			ev.Type = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			ev.Data = append(ev.Data[:0:0], line[len("data: "):]...)
		case line == "":
			if ev.Type == "" && ev.Data == nil {
				continue
			}
			if err := fn(ev); err != nil {
				return err
			}
			ev = Event{}
		}
	}
	if err := sc.Err(); err != nil && ctx.Err() == nil {
		return err
	}
	return ctx.Err()
}

// Wait follows a job's event stream until it finishes and returns its final
// (terminal) status — done, failed, or cancelled. onEvent (may be nil)
// additionally observes every event — the hook the CLIs use to print
// progress and sweep log lines live. A cancelled ctx aborts the wait
// promptly with ctx's error (the job itself keeps running; use Cancel to
// stop it).
//
// Under a WithRetry policy, a stream that dies mid-flight (connection cut,
// daemon restarting) is reconnected with backoff, within Attempts streams in
// total. Before each reconnect one single-shot status GET — not a nested
// retry loop — checks whether the job settled while the stream was down, and
// returns it if so; a fresh stream replays the job's event history, so
// onEvent may observe events more than once across a reconnect.
func (c *Client) Wait(ctx context.Context, id string, onEvent func(Event)) (*SubmitStatus, error) {
	oneShot := *c
	oneShot.retry = RetryPolicy{}
	var settled *SubmitStatus
	tries := 0
	// A stream that died mid-flight is transient by definition — the read
	// error is a raw net error, not *url.Error — so reconnect on anything
	// except an explicit terminal API rejection (404, 401).
	reconnectable := func(err error) bool {
		var ae *APIError
		return !errors.As(err, &ae) || ae.Retryable
	}
	err := c.retry.do(ctx, c.base+"/v1/jobs/"+id+"/events", reconnectable, func() error {
		if tries++; tries > 1 {
			if st, err := oneShot.Job(ctx, id); err == nil && terminalStatus(st.Status) {
				settled = st
				return nil
			}
		}
		return c.Events(ctx, id, func(ev Event) error {
			if onEvent != nil {
				onEvent(ev)
			}
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	if settled != nil {
		return settled, nil
	}
	st, err := c.Job(ctx, id)
	if err != nil {
		return nil, err
	}
	if !terminalStatus(st.Status) {
		return nil, fmt.Errorf("tssd: event stream ended but job %s is %s", id, st.Status)
	}
	return st, nil
}
