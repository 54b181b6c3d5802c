// Package client is the typed Go client for the specchard scoring
// daemon — the one place in the tree that knows how to talk to the HTTP
// surface and how to fail well while doing it.
//
// Every call goes through one retry loop with three safety layers, all
// tunable through Config:
//
//   - Capped exponential backoff with full jitter. Retryable failures
//     (transport errors, 429, 500/502/503/504) sleep a uniformly random
//     slice of an exponentially growing window before the next attempt,
//     so a thundering herd decorrelates instead of re-synchronizing. A
//     Retry-After header from the server overrides the jittered wait —
//     the server knows its own recovery horizon better than the client.
//   - A retry budget. Retries spend from a token bucket that only
//     successful requests refill; when the bucket is dry the client fails
//     fast instead of multiplying load on a struggling server. The
//     budget bounds the retry amplification factor across the whole
//     client, not per call.
//   - An error-rate circuit breaker. A sliding window of recent attempt
//     outcomes opens the breaker when the error rate crosses
//     BreakerThreshold; while open, calls fail immediately with
//     ErrBreakerOpen. After BreakerCooldown one probe request is let
//     through (half-open): success closes the breaker, failure re-opens
//     it. The breaker turns a dead server into cheap local errors.
//
// Deadlines propagate: when the call's context carries one, the request
// is stamped with DeadlineHeader (remaining budget in milliseconds) so
// the server can shed work that will miss it anyway — see the serve
// package's batcher. The retry loop also refuses to sleep past the
// context deadline.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"

	"specchar/internal/jsonscan"
)

// DeadlineHeader carries the request's remaining time budget in integer
// milliseconds. The serve package reads it (the constant lives here
// because serve imports client, not the reverse).
const DeadlineHeader = "X-Deadline-Ms"

// ErrBreakerOpen fails a call immediately because the circuit breaker
// judged the server unhealthy. Retrying right away is pointless; back
// off at the caller's cadence or wait for the cooldown probe.
var ErrBreakerOpen = errors.New("client: circuit breaker open")

// ErrBudgetExhausted marks a retryable failure that could not be
// retried because the retry budget was dry. The underlying failure is
// wrapped alongside it.
var ErrBudgetExhausted = errors.New("client: retry budget exhausted")

// APIError is a non-2xx response from the daemon, carrying the decoded
// error body and any Retry-After hint.
type APIError struct {
	Status     int
	Message    string
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("server returned %d: %s", e.Status, e.Message)
}

// Config parameterizes a Client. The zero value of every knob means
// "use the default" noted on the field; -1 disables the layer where
// noted.
type Config struct {
	// BaseURL roots every request, e.g. "http://127.0.0.1:8377".
	// Required.
	BaseURL string

	// HTTPClient is the transport; nil means a fresh http.Client.
	HTTPClient *http.Client

	// MaxRetries caps retries after the first attempt (default 3;
	// -1 disables retries entirely).
	MaxRetries int

	// BaseBackoff seeds the exponential window (default 50ms) and
	// MaxBackoff caps it (default 2s). The actual sleep is uniform in
	// [0, min(MaxBackoff, BaseBackoff·2^attempt)] — full jitter.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration

	// RetryBudget is the token bucket's capacity; each retry spends one
	// token, each success refills half a token (default 16; -1 disables
	// the budget).
	RetryBudget int

	// BreakerWindow is how many recent attempt outcomes the breaker
	// considers (default 32; -1 disables the breaker). The breaker only
	// judges a full window, so at least BreakerWindow attempts must
	// complete before it can open.
	BreakerWindow int

	// BreakerThreshold is the error rate in [0,1] that opens the breaker
	// (default 0.5).
	BreakerThreshold float64

	// BreakerCooldown is how long an open breaker waits before letting a
	// half-open probe through (default 1s).
	BreakerCooldown time.Duration
}

func (c Config) withDefaults() Config {
	if c.HTTPClient == nil {
		c.HTTPClient = &http.Client{}
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 3
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 50 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 2 * time.Second
	}
	if c.RetryBudget == 0 {
		c.RetryBudget = 16
	}
	if c.BreakerWindow == 0 {
		c.BreakerWindow = 32
	}
	if c.BreakerThreshold <= 0 || c.BreakerThreshold > 1 {
		c.BreakerThreshold = 0.5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = time.Second
	}
	return c
}

// Client is a specchard API client. Safe for concurrent use; the retry
// budget and breaker are shared across all calls, which is the point.
type Client struct {
	cfg  Config
	base string

	// Test seams: real clocks and sleeps in production, controllable in
	// tests. Never nil after New.
	sleep func(time.Duration)
	now   func() time.Time
	randf func() float64

	breaker breaker
	budget  budget
}

// New builds a Client over the daemon at cfg.BaseURL.
func New(cfg Config) (*Client, error) {
	if cfg.BaseURL == "" {
		return nil, errors.New("client: Config.BaseURL is required")
	}
	cfg = cfg.withDefaults()
	c := &Client{
		cfg:   cfg,
		base:  strings.TrimRight(cfg.BaseURL, "/"),
		sleep: time.Sleep,
		now:   time.Now,
		randf: rand.Float64,
	}
	c.breaker.init(cfg.BreakerWindow, cfg.BreakerThreshold, cfg.BreakerCooldown)
	c.budget.init(cfg.RetryBudget)
	return c, nil
}

// ScoreResult is the success body of POST /v1/score.
type ScoreResult struct {
	Model string `json:"model"`
	// Version is the registry version that actually scored the batch —
	// under a hot-swap this may be newer than the version visible when
	// the request was admitted.
	Version     int       `json:"version"`
	Predictions []float64 `json:"predictions"`
}

// ModelInfo mirrors the daemon's model list surface.
type ModelInfo struct {
	Name     string `json:"name"`
	Version  int    `json:"version"`
	Attrs    int    `json:"attrs"`
	Leaves   int    `json:"leaves"`
	Nodes    int    `json:"nodes"`
	Smoothed bool   `json:"smoothed"`
	Source   string `json:"source"`
	SHA256   string `json:"sha256,omitempty"`
	LoadedAt string `json:"loaded_at"`
}

// Health is the body of GET /healthz.
type Health struct {
	Status        string  `json:"status"`
	Models        int     `json:"models"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// Score scores the samples against the named model.
func (c *Client) Score(ctx context.Context, model string, samples [][]float64) (*ScoreResult, error) {
	body, err := json.Marshal(map[string]any{"model": model, "samples": samples})
	if err != nil {
		return nil, err
	}
	var out ScoreResult
	if err := c.do(ctx, http.MethodPost, "/v1/score", body, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ScoreBytes scores with a pre-marshaled request body (the JSON form of
// scoreRequest: model + samples). Load harnesses use it to keep
// marshaling cost off their hot loop; everyone else wants Score.
func (c *Client) ScoreBytes(ctx context.Context, body []byte) (*ScoreResult, error) {
	var out ScoreResult
	if err := c.do(ctx, http.MethodPost, "/v1/score", body, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// PutModel loads (or hot-swaps) a model from a serialized compiled-tree
// artifact. The artifact is a byte slice, not a reader, so retries can
// resend it.
func (c *Client) PutModel(ctx context.Context, name string, artifact []byte) (*ModelInfo, error) {
	var out ModelInfo
	if err := c.do(ctx, http.MethodPut, "/v1/models/"+name, artifact, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ListModels returns the loaded models, sorted by name.
func (c *Client) ListModels(ctx context.Context) ([]ModelInfo, error) {
	var out struct {
		Models []ModelInfo `json:"models"`
	}
	if err := c.do(ctx, http.MethodGet, "/v1/models", nil, &out); err != nil {
		return nil, err
	}
	return out.Models, nil
}

// GetModel returns one model's info.
func (c *Client) GetModel(ctx context.Context, name string) (*ModelInfo, error) {
	var out ModelInfo
	if err := c.do(ctx, http.MethodGet, "/v1/models/"+name, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// DeleteModel unloads a model.
func (c *Client) DeleteModel(ctx context.Context, name string) error {
	return c.do(ctx, http.MethodDelete, "/v1/models/"+name, nil, nil)
}

// Health fetches /healthz.
func (c *Client) Health(ctx context.Context) (*Health, error) {
	var out Health
	if err := c.do(ctx, http.MethodGet, "/healthz", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// WaitHealthy polls /healthz until it answers ok, the timeout elapses,
// or ctx is done. The poll loop bypasses the retry budget (each poll is
// its own cheap attempt) by spacing attempts itself.
func (c *Client) WaitHealthy(ctx context.Context, timeout time.Duration) error {
	deadline := c.now().Add(timeout)
	var lastErr error
	for {
		h, err := c.Health(ctx)
		if err == nil && h.Status == "ok" {
			return nil
		}
		if err != nil {
			lastErr = err
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if !c.now().Before(deadline) {
			return fmt.Errorf("client: daemon not healthy after %v: %w", timeout, lastErr)
		}
		c.sleep(50 * time.Millisecond)
	}
}

// do is the one retry loop every call funnels through.
func (c *Client) do(ctx context.Context, method, path string, body []byte, out any) error {
	var lastErr error
	for attempt := 0; ; attempt++ {
		if err := c.breaker.allow(c.now()); err != nil {
			if lastErr != nil {
				return fmt.Errorf("%w (last failure: %v)", err, lastErr)
			}
			return err
		}
		err := c.attempt(ctx, method, path, body, out)
		c.breaker.record(err == nil, c.now())
		if err == nil {
			c.budget.refill()
			return nil
		}
		lastErr = err
		if !retryable(err) || c.cfg.MaxRetries < 0 || attempt >= c.cfg.MaxRetries || ctx.Err() != nil {
			return err
		}
		if !c.budget.spend() {
			return fmt.Errorf("%w: %w", ErrBudgetExhausted, err)
		}
		d := c.backoff(attempt)
		var apiErr *APIError
		if errors.As(err, &apiErr) && apiErr.RetryAfter > d {
			d = apiErr.RetryAfter
		}
		if dl, ok := ctx.Deadline(); ok && c.now().Add(d).After(dl) {
			return err
		}
		c.sleep(d)
	}
}

// backoff returns a full-jitter wait: uniform in [0, cap] where the cap
// doubles per attempt up to MaxBackoff.
func (c *Client) backoff(attempt int) time.Duration {
	window := c.cfg.BaseBackoff << uint(attempt)
	if window <= 0 || window > c.cfg.MaxBackoff {
		window = c.cfg.MaxBackoff
	}
	return time.Duration(c.randf() * float64(window))
}

// attempt performs one HTTP round trip and classifies the outcome.
func (c *Client) attempt(ctx context.Context, method, path string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if dl, ok := ctx.Deadline(); ok {
		if ms := time.Until(dl).Milliseconds(); ms > 0 {
			req.Header.Set(DeadlineHeader, strconv.FormatInt(ms, 10))
		}
	}
	resp, err := c.cfg.HTTPClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		apiErr := &APIError{Status: resp.StatusCode, RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After"), c.now())}
		var eb struct {
			Error string `json:"error"`
		}
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		if json.Unmarshal(raw, &eb) == nil && eb.Error != "" {
			apiErr.Message = eb.Error
		} else {
			apiErr.Message = strings.TrimSpace(string(raw))
		}
		return apiErr
	}
	if out == nil {
		_, err := io.Copy(io.Discard, resp.Body)
		return err
	}
	if res, ok := out.(*ScoreResult); ok {
		return decodeScoreResult(resp.Body, resp.ContentLength, res)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// decodeScoreResult reads a score response body into one buffer and
// scans the form the daemon writes; any other body, and any body whose
// read failed, is replayed into encoding/json, which decodes it exactly
// as it would have read it from the response.
func decodeScoreResult(r io.Reader, sizeHint int64, out *ScoreResult) error {
	raw, err := jsonscan.ReadBody(r, sizeHint, math.MaxInt64)
	if err == nil && scanScoreResult(raw, out) {
		return nil
	}
	return json.NewDecoder(jsonscan.Replay(raw, err)).Decode(out)
}

// scanScoreResult decodes raw into out if it is an object whose keys are
// exactly "model", "version" and "predictions" (each at most once, any
// order), the model an ASCII string without escapes, the version an
// integer, the predictions an array of numbers, followed by nothing but
// whitespace, and reports whether it was. The daemon's 200 body is
// always in this form; out is left untouched otherwise.
func scanScoreResult(raw []byte, out *ScoreResult) bool {
	s := jsonscan.New(raw)
	var res ScoreResult
	var sawModel, sawVersion, sawPredictions bool
	ok := s.Object(func(key []byte) bool {
		switch string(key) {
		case "model":
			model, ok := s.PlainString()
			if sawModel || !ok {
				return false
			}
			sawModel, res.Model = true, string(model)
			return true
		case "version":
			if sawVersion {
				return false
			}
			sawVersion = true
			version, ok := s.Int()
			res.Version = version
			return ok
		case "predictions":
			if sawPredictions {
				return false
			}
			sawPredictions = true
			// An empty array decodes to an empty, non-nil slice, as
			// encoding/json decodes it.
			preds, ok := s.Floats([]float64{})
			res.Predictions = preds
			return ok
		}
		return false
	})
	if !ok || !s.End() {
		return false
	}
	*out = res
	return true
}

// retryable reports whether the failure is worth another attempt:
// transport errors and the server-side "try again later" statuses are;
// client mistakes (4xx) and context expiry are not.
func retryable(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		switch apiErr.Status {
		case http.StatusTooManyRequests,
			http.StatusInternalServerError,
			http.StatusBadGateway,
			http.StatusServiceUnavailable,
			http.StatusGatewayTimeout:
			return true
		}
		return false
	}
	return true // transport-level failure
}

// parseRetryAfter handles both RFC 9110 forms: delta-seconds and an
// HTTP-date. Unparseable or absent values yield zero.
func parseRetryAfter(v string, now time.Time) time.Duration {
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := t.Sub(now); d > 0 {
			return d
		}
	}
	return 0
}
