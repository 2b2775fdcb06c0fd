package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// Unified error envelope: every non-2xx response across the v1 API carries
// one structured JSON shape,
//
//	{"error": {"code": "...", "message": "...", "retryable": true|false}}
//
// with a stable machine-readable code. Clients branch on Code (via APIError),
// never on message text; Retryable tells a client whether backing off and
// re-submitting the identical request can ever succeed.

// Stable API error codes.
const (
	// CodeBadRequest: the request body or parameters are malformed or
	// invalid (bad JSON, unknown workload, invalid machine config, …).
	CodeBadRequest = "bad_request"
	// CodeUnauthorized: the request carries no bearer token, or one that no
	// configured tenant owns.
	CodeUnauthorized = "unauthorized"
	// CodeQuotaExceeded: the tenant is at its max-in-flight job quota;
	// retry after one of its jobs settles.
	CodeQuotaExceeded = "quota_exceeded"
	// CodeRateLimited: the tenant exceeded its submission rate; retry
	// after backing off.
	CodeRateLimited = "rate_limited"
	// CodeDraining: the daemon is shutting down; running jobs finish, new
	// work is refused. (A dispatcher whose workers are all draining still
	// accepts jobs and holds them for Config.NoWorkerWait.)
	CodeDraining = "draining"
	// CodeNotFound: no such job or worker.
	CodeNotFound = "not_found"
	// CodeQueueFull: the scheduler queue is at QueueDepth.
	CodeQueueFull = "queue_full"
	// CodeNotReady: the result was requested before the job reached a
	// terminal state.
	CodeNotReady = "not_ready"
	// CodeJobFailed / CodeJobCancelled: the result was requested for a job
	// that settled without one.
	CodeJobFailed    = "job_failed"
	CodeJobCancelled = "job_cancelled"
	// CodeDispatchLoop: the fleet topology routed a job back through a
	// dispatcher it already passed (see DispatchPathHeader).
	CodeDispatchLoop = "dispatch_loop"
	// CodeInternal: the daemon itself failed.
	CodeInternal = "internal"
)

// retryableCode reports whether a request rejected with code can succeed
// verbatim later (after backoff, quota release, or drain completion).
func retryableCode(code string) bool {
	switch code {
	case CodeQuotaExceeded, CodeRateLimited, CodeDraining, CodeQueueFull, CodeNotReady:
		return true
	}
	return false
}

// errorDetail is the inner object of the error envelope.
type errorDetail struct {
	Code      string `json:"code"`
	Message   string `json:"message"`
	Retryable bool   `json:"retryable"`
}

// errorBody is the wire shape of every non-2xx v1 response.
type errorBody struct {
	Error errorDetail `json:"error"`
}

// writeError emits the unified error envelope.
func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorBody{Error: errorDetail{
		Code:      code,
		Message:   fmt.Sprintf(format, args...),
		Retryable: retryableCode(code),
	}})
}

// APIError is a non-2xx daemon response, decoded from the unified error
// envelope. Client methods return it (as error) for every API-level
// rejection, so callers can branch on Code with errors.As:
//
//	var apiErr *service.APIError
//	if errors.As(err, &apiErr) && apiErr.Code == service.CodeRateLimited { … }
type APIError struct {
	// Status is the HTTP status code of the response.
	Status int
	// Code is the stable machine-readable error code (Code* constants).
	Code string
	// Message is the human-readable description.
	Message string
	// Retryable reports whether the identical request can succeed later.
	Retryable bool
}

func (e *APIError) Error() string {
	return fmt.Sprintf("tssd: %s (%s)", e.Message, e.Code)
}

// decodeAPIError turns a non-2xx response into an *APIError. It understands
// the unified envelope, the pre-envelope `{"error":"message"}` shape older
// daemons emit, and falls back to the raw body, deriving a code from the
// HTTP status when the wire carries none.
func decodeAPIError(resp *http.Response) error {
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))

	var envelope struct {
		Error json.RawMessage `json:"error"`
	}
	apiErr := &APIError{Status: resp.StatusCode}
	if json.Unmarshal(body, &envelope) == nil && len(envelope.Error) > 0 {
		var detail errorDetail
		var legacy string
		switch {
		case json.Unmarshal(envelope.Error, &detail) == nil && detail.Message != "":
			apiErr.Code = detail.Code
			apiErr.Message = detail.Message
			apiErr.Retryable = detail.Retryable
		case json.Unmarshal(envelope.Error, &legacy) == nil && legacy != "":
			apiErr.Message = legacy
		}
	}
	if apiErr.Message == "" {
		apiErr.Message = fmt.Sprintf("%s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	if apiErr.Code == "" {
		apiErr.Code = codeForStatus(resp.StatusCode)
		apiErr.Retryable = retryableCode(apiErr.Code)
	}
	return apiErr
}

// codeForStatus maps an HTTP status to the closest stable code, for
// responses (older daemons, proxies) that carry no code of their own.
func codeForStatus(status int) string {
	switch status {
	case http.StatusUnauthorized:
		return CodeUnauthorized
	case http.StatusNotFound:
		return CodeNotFound
	case http.StatusTooManyRequests:
		return CodeRateLimited
	case http.StatusServiceUnavailable:
		return CodeDraining
	case http.StatusConflict:
		return CodeNotReady
	}
	if status >= 500 {
		return CodeInternal
	}
	return CodeBadRequest
}
