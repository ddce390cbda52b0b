package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"subwarpsim/internal/server"
)

// TestClusterResponseBytesMatchNode: the coordinator decodes a worker's
// response and encodes it again, and that round trip is the identity.
// The same /v1/jobs and /v1/submit bodies, under the same X-Trace-ID,
// get byte-identical response bodies from a lone node's Handler and
// from a coordinator over one live worker, on the first (simulated)
// request and on the second (cached) one.
func TestClusterResponseBytesMatchNode(t *testing.T) {
	node := server.New(server.Options{Workers: 1})
	nodeTS := httptest.NewServer(node.Handler())
	t.Cleanup(func() {
		nodeTS.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		node.Drain(ctx)
	})
	c := newTestCluster(t, 1, nil, nil, nil)

	job, _ := json.Marshal(server.JobSpec{Microbench: 4, SI: true, Trigger: "half"})
	kernel, _ := json.Marshal(server.SubmitSpec{Name: "add", Assembly: addAsm})
	post := func(base, path string, body []byte, id string) []byte {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, base+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Trace-ID", id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s%s = %d: %s", base, path, resp.StatusCode, raw)
		}
		return raw
	}
	for _, r := range []struct {
		path string
		body []byte
	}{{"/v1/jobs", job}, {"/v1/submit", kernel}} {
		for round, want := range []string{`"cached":false`, `"cached":true`} {
			id := "hop-bytes-" + r.path[4:]
			direct := post(nodeTS.URL, r.path, r.body, id)
			hopped := post(c.front.URL, r.path, r.body, id)
			if !bytes.Contains(direct, []byte(want)) {
				t.Fatalf("%s round %d: node answered %s, want %s", r.path, round, direct, want)
			}
			if !bytes.Equal(direct, hopped) {
				t.Errorf("%s round %d: bytes differ across the hop\nnode:        %s\ncoordinator: %s",
					r.path, round, direct, hopped)
			}
		}
	}
}
