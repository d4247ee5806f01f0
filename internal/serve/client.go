package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"

	"reactivenoc/internal/chip"
)

// specEnvelope is the submission body: the spec rides under one key so the
// wire format has room to grow (priorities, callbacks) without breaking
// old clients.
type specEnvelope struct {
	Spec chip.Spec `json:"spec"`
}

// Client talks to an rcserved instance. Its Run method has the same shape
// as chip.RunCtx, so it plugs straight into exp.Policy.Run and turns every
// existing sweep into a service client.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient targets a server base URL ("http://host:port").
func NewClient(base string) *Client {
	return &Client{base: strings.TrimRight(base, "/"), hc: &http.Client{}}
}

// retryAfterError reports server backpressure (429/503) and how long the
// server asked us to back off.
type retryAfterError struct {
	status int
	after  time.Duration
}

func (e *retryAfterError) Error() string {
	return fmt.Sprintf("serve: server busy (HTTP %d), retry after %v", e.status, e.after)
}

// StatusError is a non-backpressure HTTP failure from the server. The code
// tells a rejected request (4xx: the submission's fault, resubmitting it
// cannot help) from a server-side failure (everything else).
type StatusError struct {
	Code int
	Msg  string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("serve: HTTP %d: %s", e.Code, e.Msg)
}

func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()

	switch resp.StatusCode {
	case http.StatusOK, http.StatusAccepted:
		return json.NewDecoder(resp.Body).Decode(out)
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		after := time.Second
		if v := resp.Header.Get("Retry-After"); v != "" {
			if n, err := strconv.Atoi(v); err == nil && n > 0 {
				after = time.Duration(n) * time.Second
			}
		}
		return &retryAfterError{status: resp.StatusCode, after: after}
	default:
		var ae apiError
		_ = json.NewDecoder(resp.Body).Decode(&ae)
		if ae.Error == "" {
			ae.Error = resp.Status
		}
		return &StatusError{Code: resp.StatusCode, Msg: fmt.Sprintf("%s %s: %s", method, path, ae.Error)}
	}
}

// Submit posts one spec; backpressure surfaces as a retryable error that
// Run absorbs.
func (c *Client) Submit(ctx context.Context, spec chip.Spec) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodPost, "/v1/jobs", specEnvelope{Spec: spec}, &st)
	return st, err
}

// Job fetches a job's status, including the Results when done.
func (c *Client) Job(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &st)
	return st, err
}

// Wait polls a job until it reaches a terminal state.
func (c *Client) Wait(ctx context.Context, id string) (JobStatus, error) {
	interval := 10 * time.Millisecond
	for {
		st, err := c.Job(ctx, id)
		if err != nil {
			return st, err
		}
		if st.State.Terminal() {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-time.After(interval):
		}
		if interval < 250*time.Millisecond {
			interval *= 2
		}
	}
}

// backpressureMaxWait bounds the exponential growth of backpressure
// sleeps; the jitter can stretch one sleep to at most 1.5x this.
const backpressureMaxWait = 15 * time.Second

// backpressureWait derives the attempt'th backpressure sleep from the
// server's Retry-After hint: bounded exponential growth with full jitter
// in [w/2, 3w/2), so N sweep workers rejected by the same recovering server
// spread their retries out instead of stampeding it in lockstep.
func backpressureWait(hint time.Duration, attempt int) time.Duration {
	w := hint
	if w <= 0 {
		w = time.Second
	}
	for i := 1; i < attempt && w < backpressureMaxWait; i++ {
		w *= 2
	}
	if w > backpressureMaxWait {
		w = backpressureMaxWait
	}
	return w/2 + time.Duration(rand.Int63n(int64(w)))
}

// Run submits the spec and blocks for its results — the remote equivalent
// of chip.RunCtx, honoring backpressure by waiting out Retry-After with
// jittered, bounded-exponential sleeps. The total wait is capped by the
// caller's context deadline: when the next sleep cannot fit before the
// deadline, Run gives up immediately with the backpressure error instead
// of burning the remaining budget asleep. A failed run comes back as the
// server's structured *chip.RunError, so exp's failure reports look the
// same whether the run was local or remote.
func (c *Client) Run(ctx context.Context, spec chip.Spec) (*chip.Results, error) {
	var st JobStatus
	for attempt := 1; ; attempt++ {
		var err error
		st, err = c.Submit(ctx, spec)
		if err == nil {
			break
		}
		ra, ok := err.(*retryAfterError)
		if !ok {
			return nil, err
		}
		wait := backpressureWait(ra.after, attempt)
		if dl, ok := ctx.Deadline(); ok && time.Now().Add(wait).After(dl) {
			return nil, fmt.Errorf("serve: backpressure outlasted the context deadline after %d attempts: %w", attempt, err)
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(wait):
		}
	}
	if !st.State.Terminal() {
		var err error
		st, err = c.Wait(ctx, st.ID)
		if err != nil {
			return nil, err
		}
	}
	switch st.State {
	case StateDone:
		if st.Result == nil {
			// Terminal submit responses carry the result only on cache
			// hits; fetch the full record otherwise.
			full, err := c.Job(ctx, st.ID)
			if err != nil {
				return nil, err
			}
			st = full
		}
		if st.Result == nil {
			return nil, fmt.Errorf("serve: job %s done but carries no result", st.ID)
		}
		return st.Result, nil
	case StateFailed:
		if st.Error != nil {
			return nil, st.Error
		}
		return nil, fmt.Errorf("serve: job %s failed without a structured error", st.ID)
	default:
		return nil, fmt.Errorf("serve: job %s was %s by server shutdown; resubmit after restart", st.ID, st.State)
	}
}

// Follow streams a job's events, starting at cursor after (the Seq of the
// first event wanted), invoking fn for each. It returns the next cursor —
// one past the last delivered Seq. A nil error means the stream reached a
// terminal event; any other outcome (the server died mid-stream, fn bailed)
// returns the cursor to resume from. Because a journal-replayed job
// re-runs deterministically under its original id, resuming with that
// cursor on the server restarted from the journal yields exactly the
// events the broken stream never delivered — no window is seen twice.
func (c *Client) Follow(ctx context.Context, id string, after int, fn func(Event) error) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s/v1/jobs/%s/events?after=%d", c.base, id, after), nil)
	if err != nil {
		return after, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return after, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var ae apiError
		_ = json.NewDecoder(resp.Body).Decode(&ae)
		if ae.Error == "" {
			ae.Error = resp.Status
		}
		return after, &StatusError{Code: resp.StatusCode, Msg: "GET events: " + ae.Error}
	}
	next := after
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return next, fmt.Errorf("serve: bad event frame: %w", err)
		}
		if fn != nil {
			if err := fn(ev); err != nil {
				return next, err
			}
		}
		next = ev.Seq + 1
		if ev.At.Terminal() {
			return next, nil
		}
	}
	if err := sc.Err(); err != nil {
		return next, err
	}
	return next, io.ErrUnexpectedEOF
}

// Metrics scrapes /metrics into a name→value map.
func (c *Client) Metrics(ctx context.Context) (map[string]int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("serve: GET /metrics: %s", resp.Status)
	}
	out := map[string]int64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(strings.TrimSpace(sc.Text()), " ")
		if !ok {
			continue
		}
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			continue
		}
		out[name] = n
	}
	return out, sc.Err()
}
