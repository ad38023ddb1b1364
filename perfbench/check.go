package main

import (
	"errors"
	"fmt"

	"trust/internal/store"
)

// check is the correctness gate for one fleet once its traffic is done.
// The server must have accepted exactly the device calls that returned
// success and rejected none (these workloads send no bad request), and a
// WAL workload's disk must recover exactly the pre-written accounts, the
// set-up accounts and the acknowledged enrollments. check tears the
// fleet down, server included.
func (fl *fleet) check() error {
	fl.shutdown()
	var errs []error
	if got, want := fl.srv.AcceptedRequests()-fl.accepted, fl.okCalls(); got != want {
		errs = append(errs, fmt.Errorf("server accepted %d requests, devices saw %d succeed", got, want))
	}
	if got := fl.srv.RejectedRequests() - fl.rejected; got != 0 {
		errs = append(errs, fmt.Errorf("server rejected %d requests of a clean workload", got))
	}
	if err := fl.srv.Close(); err != nil {
		errs = append(errs, fmt.Errorf("closing server: %w", err))
	}
	if fl.fs != nil {
		if err := fl.checkRecovery(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// checkRecovery reopens the server's disk as a crash would leave it and
// compares the recovered accounts with the ones the run acknowledged.
func (fl *fleet) checkRecovery() error {
	w, err := store.OpenWAL(fl.fs.Crash(), store.WALOptions{})
	if err != nil {
		return fmt.Errorf("reopening WAL: %w", err)
	}
	defer w.Close()
	want := make(map[string]bool, len(fl.pre))
	for _, id := range fl.pre {
		want[id] = true
	}
	for _, c := range fl.clients {
		want[c.acct] = true
		for _, id := range c.enrolled {
			want[id] = true
		}
	}
	recs, _ := w.State()
	if len(recs) != len(want) {
		return fmt.Errorf("WAL recovered %d accounts, want %d", len(recs), len(want))
	}
	for _, r := range recs {
		if r.Kind != store.KindEnroll || !want[r.Account] {
			return fmt.Errorf("WAL recovered unexpected %s record for %q", r.Kind, r.Account)
		}
	}
	return nil
}

// touchPrefixes keeps each device's first touch verdicts once its fleet
// is gone.
func touchPrefixes(fl *fleet) [][]bool {
	out := make([][]bool, len(fl.clients))
	for i, c := range fl.clients {
		out[i] = c.prefix
	}
	return out
}

// sameTouches checks that two fleets built from one seed verified the
// same number of touches over each device's common prefix: FLock's
// verdicts depend on the seed alone, never on timing.
func sameTouches(a, b [][]bool) error {
	for i := range a {
		n := min(len(a[i]), len(b[i]))
		if x, y := countTrue(a[i][:n]), countTrue(b[i][:n]); x != y {
			return fmt.Errorf("device %d verified %d then %d of its first %d touches", i, x, y, n)
		}
	}
	return nil
}

func countTrue(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}
