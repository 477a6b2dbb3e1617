package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// client is the HTTP client every benchmark request goes through: keep-alive
// connections, one per closed-loop client.
var client = &http.Client{
	Transport: &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true},
	Timeout:   60 * time.Second,
}

// post sends body to url and returns the status and response body.
func post(url string, body []byte) (int, []byte, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// postOK is post that treats any status but 200 as an error.
func postOK(url string, body []byte) ([]byte, error) {
	status, b, err := post(url, body)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("POST %s: HTTP %d: %s", url, status, bytes.TrimSpace(b))
	}
	return b, nil
}

// window is the outcome of one timed closed-loop window.
type window struct {
	Latencies []float64 // milliseconds, one per completed operation
	Attempted int64
	Failed    int64
	Wall      time.Duration
	// FirstErr is the first failure, for diagnostics.
	FirstErr error
}

// QPS is completed operations per second of wall time.
func (w *window) QPS() float64 {
	return float64(len(w.Latencies)) / w.Wall.Seconds()
}

// stopRule ends a window: once maxDur has passed; otherwise, when done is
// set, once it reports true, and when it is not, once minDur has passed and
// at least minOps operations completed.
type stopRule struct {
	minDur, maxDur time.Duration
	minOps         int64
	done           func() bool
}

// closedLoop runs clients closed-loop clients: each sends its next operation
// only after the previous one returned. op(client, i) performs the i-th
// operation of a client and reports an error on failure. Every goroutine it
// starts has returned when it returns.
func closedLoop(clients int, rule stopRule, op func(client, i int) error) *window {
	var (
		mu      sync.Mutex
		w       = &window{}
		ops     atomic.Int64
		stopped atomic.Bool
		wg      sync.WaitGroup
	)
	start := time.Now()
	shouldStop := func() bool {
		if stopped.Load() {
			return true
		}
		el := time.Since(start)
		var stop bool
		switch {
		case el >= rule.maxDur:
			stop = true
		case rule.done != nil:
			stop = rule.done()
		default:
			stop = el >= rule.minDur && ops.Load() >= rule.minOps
		}
		if stop {
			stopped.Store(true)
			return true
		}
		return false
	}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var lat []float64
			var attempted, failed int64
			var firstErr error
			for i := 0; !shouldStop(); i++ {
				t0 := time.Now()
				err := op(c, i)
				d := time.Since(t0)
				attempted++
				if err != nil {
					failed++
					if firstErr == nil {
						firstErr = err
					}
					continue
				}
				lat = append(lat, float64(d.Nanoseconds())/1e6)
				ops.Add(1)
			}
			mu.Lock()
			w.Latencies = append(w.Latencies, lat...)
			w.Attempted += attempted
			w.Failed += failed
			if w.FirstErr == nil {
				w.FirstErr = firstErr
			}
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	w.Wall = time.Since(start)
	sort.Float64s(w.Latencies)
	return w
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of sorted
// values: the smallest value with at least p·n values at or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank]
}

// beyond counts the values of sorted strictly greater than percentile p: the
// samples that back the reported tail.
func beyond(sorted []float64, p float64) int {
	v := percentile(sorted, p)
	return len(sorted) - sort.Search(len(sorted), func(i int) bool { return sorted[i] > v })
}

// median returns the median of values (not necessarily sorted).
func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
