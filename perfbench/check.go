package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"time"

	"dynsample/internal/core"
	"dynsample/internal/engine"
	"dynsample/internal/parallel"
	"dynsample/internal/server"
	"dynsample/internal/sqlparse"
)

// verification is the outcome of the untimed pass over the distinct queries.
type verification struct {
	// NodeHash and ClusterHash are each query's expected response digest
	// (elapsedMicros removed) from the single node and the coordinator; the
	// timed windows compare every response against them.
	NodeHash, ClusterHash [][32]byte

	RelErr          float64 // mean Definition 4.2 RelErr over the queries
	PctGroupsMissed float64 // mean Definition 4.1 PctGroups, in percent
	Bounded         int
	Violations      int // bounded queries whose true RelErr exceeds error_bound
	AnswersSHA256   string
	Checks          []checkResult
	Ops             int64 // HTTP requests and in-process answers compared
	Failed          int64 // failed requests and failed comparisons

	// ExactRowsPerSec is engine.ExecuteExact throughput over the base data,
	// measured only when the pass is traced.
	ExactRowsPerSec float64
}

// queryCheck is the verification of one distinct query.
type queryCheck struct {
	nodeHash, clusterHash [32]byte
	canon                 []byte // canonical approximate answer, for the digest
	rel                   float64
	groups, missed        int
	identical, clusterEq  bool
	failures              []checkResult
}

// verify runs every distinct query once, untimed, against the single node
// (approximate and exact), in process, and through the coordinator, and
// checks the standing contracts:
//   - every HTTP answer is bit-identical to the in-process
//     System.ApproxBoundsCtx answer for the same query;
//   - COUNT answers from the coordinator's /v1/exact equal the single node's.
//
// Queries are checked by two goroutines; the results are folded in query
// order. When traced is set it also times engine.ExecuteExact serially.
func verify(d *deployment, qs []benchQuery, traced bool) *verification {
	checks := make([]queryCheck, len(qs))
	parallel.ForEach(queryClients, len(qs), func(i int) { checks[i] = checkQuery(d, qs[i]) })

	v := &verification{NodeHash: make([][32]byte, len(qs)), ClusterHash: make([][32]byte, len(qs))}
	answers := sha256.New()
	identical, clusterEq := 0, 0
	for i, c := range checks {
		v.Ops += 5
		v.Failed += int64(len(c.failures))
		v.Checks = append(v.Checks, c.failures...)
		v.NodeHash[i], v.ClusterHash[i] = c.nodeHash, c.clusterHash
		answers.Write(c.canon)
		v.RelErr += c.rel
		if c.groups > 0 {
			v.PctGroupsMissed += 100 * float64(c.missed) / float64(c.groups)
		}
		if qs[i].ErrorBound > 0 {
			v.Bounded++
			if c.rel > qs[i].ErrorBound {
				v.Violations++
			}
		}
		if c.identical {
			identical++
		}
		if c.clusterEq {
			clusterEq++
		}
	}
	n := float64(len(qs))
	v.RelErr /= n
	v.PctGroupsMissed /= n
	v.AnswersSHA256 = hex.EncodeToString(answers.Sum(nil))
	v.Checks = append(v.Checks,
		checkResult{Name: "http_matches_in_process", Pass: identical == len(qs), Detail: fmt.Sprintf("%d/%d identical", identical, len(qs))},
		checkResult{Name: "cluster_exact_matches_single_node", Pass: clusterEq == countQueries(qs), Detail: fmt.Sprintf("%d/%d COUNT queries equal", clusterEq, countQueries(qs))})

	if traced {
		var rows int64
		var elapsed time.Duration
		for _, q := range qs {
			t0 := time.Now()
			res, err := engine.ExecuteExact(d.sys.DB(), q.Q)
			elapsed += time.Since(t0)
			if err != nil {
				v.Failed++
				v.Checks = append(v.Checks, checkResult{Name: "engine_exact", Detail: err.Error()})
				continue
			}
			rows += res.RowsScanned
		}
		v.Ops += int64(len(qs))
		v.ExactRowsPerSec = float64(rows) / elapsed.Seconds()
	}
	return v
}

// checkQuery verifies one query; see verify.
func checkQuery(d *deployment, q benchQuery) queryCheck {
	var c queryCheck
	fail := func(name string, err error) queryCheck {
		c.failures = append(c.failures, checkResult{Name: name, Detail: fmt.Sprintf("%s: %v", q.SQL, err)})
		return c
	}
	body, err := postOK(d.node.URL+"/v1/query", q.Body)
	if err != nil {
		return fail("node_query", err)
	}
	c.nodeHash = responseDigest(body)
	var got server.QueryResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return fail("node_query", err)
	}
	want, err := inProcess(d.sys, q)
	if err == nil {
		err = sameAnswer(want, &got)
	}
	if err != nil {
		fail("http_matches_in_process", err)
	}
	c.identical = err == nil
	c.canon, _ = json.Marshal(struct {
		Groups    []server.GroupJSON
		RowsRead  int64
		Plan      string
		Predicted *float64
		Achieved  *float64
	}{got.Groups, got.RowsRead, got.Plan, got.Predicted, got.Achieved})

	exactBody, err := postOK(d.node.URL+"/v1/exact", exactRequest(q.SQL))
	var exact server.QueryResponse
	if err == nil {
		err = json.Unmarshal(exactBody, &exact)
	}
	if err != nil {
		return fail("node_exact", err)
	}
	c.rel, c.groups, c.missed = relErr(exact.Groups, got.Groups)

	cbody, err := postOK(d.cluster.URL+"/v1/query", q.Body)
	if err != nil {
		return fail("cluster_query", err)
	}
	c.clusterHash = responseDigest(cbody)
	if !q.Count {
		return c
	}
	var cexact server.QueryResponse
	cb, err := postOK(d.cluster.URL+"/v1/exact", exactRequest(q.SQL))
	if err == nil {
		err = json.Unmarshal(cb, &cexact)
	}
	if err == nil {
		err = sameGroups(exact.Groups, cexact.Groups)
	}
	if err != nil {
		return fail("cluster_exact_matches_single_node", err)
	}
	c.clusterEq = true
	return c
}

func countQueries(qs []benchQuery) int {
	n := 0
	for _, q := range qs {
		if q.Count {
			n++
		}
	}
	return n
}

func exactRequest(sql string) []byte {
	b, _ := json.Marshal(server.QueryRequest{SQL: sql})
	return b
}

// inProcess answers q through core.System directly and presents the answer
// the way the server does, so it can be compared field by field.
func inProcess(sys *core.System, q benchQuery) (*server.QueryResponse, error) {
	stmt, err := sqlparse.Parse(q.SQL)
	if err != nil {
		return nil, err
	}
	compiled, err := sqlparse.Compile(stmt, sys.DB())
	if err != nil {
		return nil, err
	}
	ans, err := sys.ApproxBoundsCtx(context.Background(), server.DefaultStrategy, compiled.Query, core.Bounds{ErrorBound: q.ErrorBound})
	if err != nil {
		return nil, err
	}
	return present(compiled, ans), nil
}

// present renders an answer as the server's /v1/query response body does.
func present(compiled *sqlparse.Compiled, ans *core.Answer) *server.QueryResponse {
	resp := &server.QueryResponse{RowsRead: ans.RowsRead, Degraded: ans.Degraded}
	for _, g := range compiled.Present(ans.Result) {
		key := engine.EncodeKey(g.Key)
		gj := server.GroupJSON{Exact: g.Exact}
		for _, v := range g.Key {
			gj.Key = append(gj.Key, strings.Trim(v.String(), "'"))
		}
		for _, o := range compiled.Outputs {
			switch o.Kind {
			case sqlparse.OutAgg:
				gj.Values = append(gj.Values, g.Vals[o.AggIndex])
				iv := ans.Interval(key, o.AggIndex)
				gj.CI = append(gj.CI, [2]float64{iv.Lo, iv.Hi})
			case sqlparse.OutAvg:
				avg := 0.0
				if g.Vals[o.DenIndex] != 0 {
					avg = g.Vals[o.NumIndex] / g.Vals[o.DenIndex]
				}
				gj.Values = append(gj.Values, avg)
				gj.CI = append(gj.CI, [2]float64{avg, avg})
			}
		}
		resp.Groups = append(resp.Groups, gj)
	}
	if d := ans.Plan; d != nil {
		predicted, achieved := d.Chosen.PredictedError, d.AchievedError
		resp.Plan, resp.Predicted, resp.Achieved = d.Chosen.Name, &predicted, &achieved
	}
	return resp
}

// sameAnswer reports the first difference between two answers, comparing
// floats bit for bit.
func sameAnswer(want, got *server.QueryResponse) error {
	if want.RowsRead != got.RowsRead {
		return fmt.Errorf("rowsRead %d, want %d", got.RowsRead, want.RowsRead)
	}
	if want.Degraded != got.Degraded || want.Plan != got.Plan {
		return fmt.Errorf("plan %q degraded=%v, want %q degraded=%v", got.Plan, got.Degraded, want.Plan, want.Degraded)
	}
	if !sameFloatPtr(want.Predicted, got.Predicted) || !sameFloatPtr(want.Achieved, got.Achieved) {
		return fmt.Errorf("predicted/achieved error differ")
	}
	return sameGroups(want.Groups, got.Groups)
}

// sameGroups compares two presented group lists exactly, order included.
func sameGroups(want, got []server.GroupJSON) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d groups, want %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if strings.Join(w.Key, "\x1f") != strings.Join(g.Key, "\x1f") {
			return fmt.Errorf("group %d key %v, want %v", i, g.Key, w.Key)
		}
		if w.Exact != g.Exact {
			return fmt.Errorf("group %v exact=%v, want %v", w.Key, g.Exact, w.Exact)
		}
		if !sameFloats(w.Values, g.Values) {
			return fmt.Errorf("group %v values %v, want %v", w.Key, g.Values, w.Values)
		}
		if len(w.CI) != len(g.CI) {
			return fmt.Errorf("group %v has %d intervals, want %d", w.Key, len(g.CI), len(w.CI))
		}
		for j := range w.CI {
			if !sameFloats(w.CI[j][:], g.CI[j][:]) {
				return fmt.Errorf("group %v interval %d %v, want %v", w.Key, j, g.CI[j], w.CI[j])
			}
		}
	}
	return nil
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameFloatPtr(a, b *float64) bool {
	if a == nil || b == nil {
		return a == b
	}
	return math.Float64bits(*a) == math.Float64bits(*b)
}

// relErr is Definition 4.2's mean per-group relative error of approx against
// exact (a missing group counts 1; a zero exact value counts 1 only when the
// estimate is nonzero), averaged over the exact groups, with the first
// aggregate compared. It also returns Definition 4.1's inputs: the exact
// group count and how many of those groups the answer missed.
func relErr(exact, approx []server.GroupJSON) (rel float64, groups, missed int) {
	if len(exact) == 0 {
		return 0, 0, 0
	}
	am := make(map[string][]float64, len(approx))
	for _, g := range approx {
		am[strings.Join(g.Key, "\x1f")] = g.Values
	}
	var sum float64
	for _, g := range exact {
		vals, ok := am[strings.Join(g.Key, "\x1f")]
		if !ok || len(vals) == 0 {
			missed++
			sum++
			continue
		}
		x, xhat := g.Values[0], vals[0]
		switch {
		case x == 0 && xhat != 0:
			sum++
		case x != 0:
			sum += math.Abs((x - xhat) / x)
		}
	}
	return sum / float64(len(exact)), len(exact), missed
}

// responseDigest hashes a response body with its elapsedMicros field
// removed; everything else in an answer is deterministic.
func responseDigest(body []byte) [32]byte {
	const field = `"elapsedMicros":`
	i := bytes.Index(body, []byte(field))
	if i < 0 {
		return sha256.Sum256(body)
	}
	j := i + len(field)
	for j < len(body) && (body[j] == '-' || body[j] >= '0' && body[j] <= '9') {
		j++
	}
	h := sha256.New()
	h.Write(body[:i])
	h.Write(body[j:])
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}
