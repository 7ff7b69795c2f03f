package registry_test

// Specs persisted before WithArena was removed: the registry hardened
// every deterministic stanza with "arena": true, so every committed
// data directory of that era carries the field in its snapshot
// manifest and its WAL create records. Recovery must still boot them;
// operator input naming the field must fail loudly instead.

import (
	"bytes"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	hh "repro"
	"repro/internal/persist"
	"repro/internal/registry"
)

// legacySpec is what hardenSpec wrote for the stanza {"capacity": 32}
// while the option existed.
const legacySpec = `{"capacity":32,"concurrent":true,"borrowed_keys":true,"arena":true}`

func TestLegacyArenaSpecRecovers(t *testing.T) {
	dir := t.TempDir()
	st, err := persist.Open(persist.Options{Dir: dir, Fsync: persist.FsyncRotate})
	if err != nil {
		t.Fatal(err)
	}
	// A committed snapshot whose manifest spec carries the field...
	snapped := hh.New[string](hh.WithCapacity(32))
	snapped.UpdateBatch([]string{"a", "b", "a"})
	var blob bytes.Buffer
	if err := snapped.Encode(&blob); err != nil {
		t.Fatal(err)
	}
	boundary, err := st.BeginSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WriteSnapshot(boundary, []persist.SummarySnapshot{{
		Name: "snapped", Spec: []byte(legacySpec), N: snapped.N(), Len: snapped.Len(),
		Algorithm: hh.AlgoSpaceSaving.String(), Blob: blob.Bytes(),
	}}); err != nil {
		t.Fatal(err)
	}
	// ...and a WAL tail that creates a summary with it and feeds it.
	if err := st.AppendCreate("logged", []byte(legacySpec)); err != nil {
		t.Fatal(err)
	}
	var seq persist.Seq
	if err := st.AppendBatch("logged", &seq, []string{"x", "y"}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// The stanza that produced the manifest spec still matches it.
	reg, err := registry.New(durableConfig(dir, map[string]hh.Spec{"snapped": {Capacity: 32}}))
	if err != nil {
		t.Fatalf("data dir with legacy arena specs did not boot: %v", err)
	}
	defer reg.Halt()
	for name, wantN := range map[string]float64{"snapped": 3, "logged": 2} {
		e, ok := reg.Get(name)
		if !ok {
			t.Fatalf("%s: not recovered", name)
		}
		v, err := e.View()
		if err != nil {
			t.Fatal(err)
		}
		if v.N() != wantN {
			t.Errorf("%s: recovered N = %v, want %v", name, v.N(), wantN)
		}
		if got := e.Spec(); got != (hh.Spec{Capacity: 32, Concurrent: true, BorrowedKeys: true}) {
			t.Errorf("%s: recovered spec %+v", name, got)
		}
	}
}

func TestArenaFieldRejectedInOperatorSpecs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "serverd.json")
	if err := os.WriteFile(path, []byte(`{"summaries": {"q": {"capacity": 32, "arena": true}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := registry.LoadConfig(path); err == nil || !strings.Contains(err.Error(), `unknown field "arena"`) {
		t.Errorf("config stanza with arena: err = %v, want the unknown-field error naming it", err)
	}

	ts, reg := newTestServer(t, registry.Config{})
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/q", strings.NewReader(`{"capacity": 32, "arena": true}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	body.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body.String(), `unknown field \"arena\"`) {
		t.Errorf("PUT with arena: status %d, body %s; want 400 naming the field", resp.StatusCode, body.String())
	}
	if _, ok := reg.Get("q"); ok {
		t.Error("PUT with arena created the summary")
	}
}
