//go:build linux

package client

import (
	"bufio"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/artifact"
	"repro/internal/metis/dtree"
	"repro/internal/serve"
)

// TestSHMResidencyFollowsInflightDepth pins what the slab allocator buys: a
// connection serving one request at a time keeps a few slab slots resident,
// not the 8 MiB default geometry. A shared-memory client on one connection
// sends 300 sequential 256-row, 25-feature predicts (about 51 KB each,
// ring-bulk's shape); afterwards both mappings of the segment in this
// process — the server's Create and the client's Open — must each hold
// under 1 MiB.
func TestSHMResidencyFollowsInflightDepth(t *testing.T) {
	if _, err := os.Stat("/proc/self/smaps"); err != nil {
		t.Skip("no /proc/self/smaps")
	}
	const features, rowsPerReq, requests = 25, 256, 300
	rng := rand.New(rand.NewSource(5))
	ds := &dtree.Dataset{}
	for i := 0; i < 400; i++ {
		x := make([]float64, features)
		for j := range x {
			x[j] = rng.Float64()
		}
		ds.X = append(ds.X, x)
		ds.Y = append(ds.Y, int(x[0]*3+x[7]*2)%4)
	}
	tree, err := dtree.Build(ds, dtree.BuildOptions{MaxLeaves: 32})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := artifact.SaveModel(filepath.Join(dir, "abr.metis"), tree, map[string]string{"name": "abr"}); err != nil {
		t.Fatal(err)
	}
	shmDir := t.TempDir()
	e, err := serve.NewEngine(dir, serve.Config{Shards: 1, SHMDir: shmDir})
	if err != nil {
		t.Fatal(err)
	}
	sock := filepath.Join(t.TempDir(), "metis-shm.sock")
	l, err := serve.ListenUDS(sock)
	if err != nil {
		t.Fatal(err)
	}
	go e.ServeSHM(l)
	t.Cleanup(func() { l.Close() })
	c := New("unix://"+sock, WithSharedMemory(), WithConns(1))

	ctx := context.Background()
	rows := make([][]float64, rowsPerReq)
	for i := 0; i < requests; i++ {
		for r := range rows {
			rows[r] = ds.X[(i*rowsPerReq+r)%len(ds.X)]
		}
		if _, err := c.PredictBatch(ctx, "abr", rows); err != nil {
			t.Fatal(err)
		}
	}
	if e.SHMConns() != 1 {
		t.Fatalf("%d shared-memory connections, want 1", e.SHMConns())
	}

	// The per-test segment directory tells this connection's mappings apart
	// from segments other tests in the process left mapped.
	rss, err := segmentRSS(filepath.Join(shmDir, fmt.Sprintf("metis-ring-%d-", os.Getpid())))
	if err != nil {
		t.Fatal(err)
	}
	if len(rss) != 2 {
		t.Fatalf("found %d mappings of the segment, want 2 (server and client): %v", len(rss), rss)
	}
	for i, kb := range rss {
		t.Logf("segment mapping %d: Rss %d kB", i, kb)
		if kb >= 1024 {
			t.Errorf("segment mapping %d holds %d kB resident after %d sequential requests, want under 1 MiB", i, kb, requests)
		}
	}
}

// segmentRSS returns the Rss, in kB, of every mapping in /proc/self/smaps
// whose path contains marker.
func segmentRSS(marker string) ([]int, error) {
	f, err := os.Open("/proc/self/smaps")
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []int
	in := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if !strings.HasSuffix(fields[0], ":") {
			// A mapping header: "start-end perms offset dev inode [path]".
			in = strings.Contains(line, marker)
			continue
		}
		if in && fields[0] == "Rss:" && len(fields) >= 2 {
			kb, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("smaps Rss line %q: %v", line, err)
			}
			out = append(out, kb)
			in = false
		}
	}
	return out, sc.Err()
}
