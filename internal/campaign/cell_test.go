package campaign_test

import (
	"bytes"
	"context"
	"errors"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/chaos"
	"repro/internal/serve"
	"repro/internal/store"
)

// cleanRaw is the ground truth for one cell: the bytes a fault-free
// Cell persists for it.
func cleanRaw(t *testing.T, spec store.JobSpec) []byte {
	t.Helper()
	out := campaign.Cell(context.Background(), openStore(t), spec, campaign.ExecOptions{})
	if out.Status != campaign.StatusDone || out.Raw == nil {
		t.Fatalf("reference cell not clean: %+v", out)
	}
	return out.Raw
}

// clusterPeers boots n in-process ccserve peers sharing one store
// directory and returns their base URLs.
func clusterPeers(t *testing.T, n int) []string {
	t.Helper()
	dir := t.TempDir()
	peers := make([]string, n)
	for i := range peers {
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		s, err := serve.New(serve.Config{Store: st, Jobs: 1, JobWorkers: 1})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s)
		t.Cleanup(ts.Close)
		peers[i] = ts.URL
	}
	return peers
}

// TestCellOutcomes pins the one cell lifecycle every caller shares —
// cccheck, campaign.Run, the MC experiment, ccserve — outcome by
// outcome, over a FaultFS-backed store.
func TestCellOutcomes(t *testing.T) {
	small := store.JobSpec{Alg: "cc2", Topo: "ring:3", Daemon: "central", Init: "legit"}.Canonical()
	big := bigSpec()

	for _, tc := range []struct {
		name string
		spec store.JobSpec
		// arrange prepares the store and the fault profile and returns
		// the call's context and options.
		arrange func(t *testing.T, st store.Interface, ffs *chaos.FaultFS) (context.Context, campaign.ExecOptions)
		// check receives the outcome and the reference bytes for spec.
		check func(t *testing.T, st store.Interface, out campaign.Outcome, want []byte)
	}{
		{
			name: "hit", spec: small,
			arrange: func(t *testing.T, st store.Interface, _ *chaos.FaultFS) (context.Context, campaign.ExecOptions) {
				if out := campaign.Cell(context.Background(), st, small, campaign.ExecOptions{}); out.Status != campaign.StatusDone {
					t.Fatalf("populating run: %+v", out)
				}
				return context.Background(), campaign.ExecOptions{}
			},
			check: func(t *testing.T, _ store.Interface, out campaign.Outcome, want []byte) {
				if out.Status != campaign.StatusHit || out.Attempts != 0 || out.Failure() != nil {
					t.Fatalf("want a clean hit, got %+v", out)
				}
				if !bytes.Equal(out.Raw, want) || out.Result == nil {
					t.Fatal("hit bytes differ from the reference")
				}
			},
		},
		{
			name: "explored and persisted", spec: small,
			check: func(t *testing.T, st store.Interface, out campaign.Outcome, want []byte) {
				if out.Status != campaign.StatusDone || out.Attempts != 1 || out.Failure() != nil {
					t.Fatalf("want done in one attempt, got %+v", out)
				}
				_, raw, ok := st.Get(small)
				if !ok || !bytes.Equal(raw, out.Raw) || !bytes.Equal(raw, want) {
					t.Fatal("returned bytes, a later Get and the reference do not agree")
				}
			},
		},
		{
			name: "persist failure keeps the verdict", spec: small,
			arrange: func(_ *testing.T, _ store.Interface, ffs *chaos.FaultFS) (context.Context, campaign.ExecOptions) {
				ffs.SetFaults(chaos.Faults{WriteErr: 1, Permanent: 1})
				return context.Background(), campaign.ExecOptions{}
			},
			check: func(t *testing.T, st store.Interface, out campaign.Outcome, _ []byte) {
				if out.Status != campaign.StatusFailed || out.Err != nil || out.PersistErr == nil {
					t.Fatalf("want failed with only the persist error set, got %+v", out)
				}
				if chaos.Classify(out.PersistErr) != chaos.Permanent || out.Attempts != 1 {
					t.Fatalf("permanent fault misclassified or retried: %v, %d attempts", out.PersistErr, out.Attempts)
				}
				clean, err := campaign.Execute(small, 1)
				if err != nil {
					t.Fatal(err)
				}
				if out.Result == nil || out.Result.Verdict() != clean.Verdict() || out.Result.States != clean.States {
					t.Fatalf("verdict lost with the failed write: %+v", out.Result)
				}
				if _, _, ok := st.Get(small); ok || out.Raw != nil {
					t.Fatal("a failed write left an entry")
				}
			},
		},
		{
			name: "recoverable fault is retried", spec: small,
			arrange: func(_ *testing.T, st store.Interface, ffs *chaos.FaultFS) (context.Context, campaign.ExecOptions) {
				// Every write fails (transient ENOSPC) until the store's
				// op-level retries are exhausted — which it logs — then
				// the disk heals: only a second attempt can succeed.
				ffs.SetFaults(chaos.Faults{WriteErr: 1})
				st.SetLog(func(string, ...any) { ffs.SetFaults(chaos.Faults{}) })
				return context.Background(), campaign.ExecOptions{RetryBackoff: time.Millisecond}
			},
			check: func(t *testing.T, st store.Interface, out campaign.Outcome, want []byte) {
				if out.Status != campaign.StatusDone || out.Attempts != 2 || out.Failure() != nil {
					t.Fatalf("want done on the second attempt, got %+v", out)
				}
				if _, raw, ok := st.Get(small); !ok || !bytes.Equal(raw, want) || !bytes.Equal(out.Raw, want) {
					t.Fatal("retried entry not byte-identical to the reference")
				}
			},
		},
		{
			name: "cancellation is skipped, snapshot saved, next run resumes", spec: big,
			arrange: func(t *testing.T, st store.Interface, _ *chaos.FaultFS) (context.Context, campaign.ExecOptions) {
				ctx, cancel := context.WithCancel(context.Background())
				t.Cleanup(cancel)
				watch := interruptAfterCheckpoint(t, st, big, cancel)
				t.Cleanup(func() { close(watch) })
				return ctx, campaign.ExecOptions{Workers: 2, Checkpoints: st, CheckpointEvery: 2000}
			},
			check: func(t *testing.T, st store.Interface, out campaign.Outcome, want []byte) {
				if out.Status != campaign.StatusSkipped || !errors.Is(out.Err, campaign.ErrInterrupted) || out.Raw != nil {
					t.Fatalf("want skipped with ErrInterrupted, got %+v", out)
				}
				if _, err := os.Stat(ckptPath(st, big)); err != nil {
					t.Fatalf("no snapshot after the interruption: %v", err)
				}
				out = campaign.Cell(context.Background(), st, big, campaign.ExecOptions{Workers: 2, Checkpoints: st, CheckpointEvery: 2000})
				if out.Status != campaign.StatusDone || out.Resumed == 0 {
					t.Fatalf("second run did not resume from the snapshot: %+v", out)
				}
				if !bytes.Equal(out.Raw, want) {
					t.Fatal("resumed entry not byte-identical to an uninterrupted run's")
				}
				if _, err := os.Stat(ckptPath(st, big)); !os.IsNotExist(err) {
					t.Fatalf("checkpoint not deleted after completion: %v", err)
				}
			},
		},
		{
			// The coordinator-side plumbing (spec marshalling, transport
			// dial, result normalization); the deep grid lives in
			// internal/cluster's differential battery and internal/serve's
			// end-to-end test.
			name: "peers dispatch to the cluster path", spec: small,
			arrange: func(t *testing.T, _ store.Interface, _ *chaos.FaultFS) (context.Context, campaign.ExecOptions) {
				return context.Background(), campaign.ExecOptions{Peers: clusterPeers(t, 2)}
			},
			check: func(t *testing.T, _ store.Interface, out campaign.Outcome, want []byte) {
				if out.Status != campaign.StatusDone || out.Failure() != nil {
					t.Fatalf("distributed cell not clean: %+v", out)
				}
				if !bytes.Equal(out.Raw, want) {
					t.Fatal("cluster entry differs from the single-node entry")
				}
			},
		},
		{
			// An unreachable peer fails the dial loudly instead of
			// degrading to a partial cluster.
			name: "unreachable peer fails the cell", spec: small,
			arrange: func(t *testing.T, _ store.Interface, _ *chaos.FaultFS) (context.Context, campaign.ExecOptions) {
				peers := append(clusterPeers(t, 1), "http://127.0.0.1:1")
				return context.Background(), campaign.ExecOptions{Peers: peers, RetryBackoff: time.Millisecond}
			},
			check: func(t *testing.T, st store.Interface, out campaign.Outcome, _ []byte) {
				if out.Status != campaign.StatusFailed || out.Err == nil || out.PersistErr != nil {
					t.Fatalf("want failed with the explore error set, got %+v", out)
				}
				if _, _, ok := st.Get(small); ok {
					t.Fatal("a failed cell left an entry")
				}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := cleanRaw(t, tc.spec)
			ffs := chaos.NewFaultFS(nil, chaos.Faults{})
			st, err := store.OpenFS(t.TempDir(), ffs)
			if err != nil {
				t.Fatal(err)
			}
			st.SetLog(func(string, ...any) {})
			ctx, eo := context.Background(), campaign.ExecOptions{}
			if tc.arrange != nil {
				ctx, eo = tc.arrange(t, st, ffs)
			}
			tc.check(t, st, campaign.Cell(ctx, st, tc.spec, eo), want)
		})
	}
}
