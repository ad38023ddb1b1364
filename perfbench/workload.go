package main

import (
	"errors"
	"fmt"
	"time"
)

// workload is one traffic mix. rate is the open-loop phase's offered
// rate in ops/s, about a sixth of the closed-loop ops_per_s measured when
// the benchmark was defined (README.md says why not a half), fixed so
// later commits are offered the same load.
type workload struct {
	name string
	rate float64
	// walAccounts, when > 0, puts the server on a WAL pre-written with
	// this many enroll records.
	walAccounts int
	// op runs one op on c and names its kind.
	op func(fl *fleet, c *client) (string, error)
}

// touchGap is the virtual time between touch-browse touches, well inside
// FLock's 30 s verified-touch window.
const touchGap = 500 * time.Millisecond

var workloads = []*workload{
	{name: "browse", rate: 8000, op: func(fl *fleet, c *client) (string, error) {
		return "page", c.browse()
	}},
	{name: "reconnect", rate: 750, op: reconnect},
	{name: "enroll-mixed", rate: 1200, walAccounts: 100_000, op: enrollMixed},
	{name: "touch-browse", rate: 500, op: func(fl *fleet, c *client) (string, error) {
		c.now += touchGap
		c.touch()
		return "page", c.browse()
	}},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// browse requests one page on the device's session, alternating the
// two actions by op number.
func (c *client) browse() error {
	action := "view-statement"
	if c.ops%2 == 0 {
		action = "home"
	}
	if err := c.dev.Browse(c.now, action); err != nil {
		return err
	}
	c.okCalls++
	return nil
}

// errFellBack marks a resume that failed and was rescued by the
// device's cold-login fallback: the device ends up with a session, but
// the resume op itself failed.
var errFellBack = errors.New("resume fell back to a cold login")

// reconnect re-establishes the session: the first of every eight ops
// per device is a cold Fig 10 login over HTTP, the rest resume with the
// cached ticket on a freshly dialled stream.
func reconnect(fl *fleet, c *client) (string, error) {
	if c.ops%8 == 1 {
		if err := c.dev.Login(c.now, fl.cert, c.acct); err != nil {
			return "login", err
		}
		c.okCalls++
		return "login", nil
	}
	before := c.resumeFallbacks()
	if err := c.dev.LoginResume(c.now, fl.cert, c.acct); err != nil {
		return "resume", err
	}
	c.okCalls++
	if c.resumeFallbacks() != before {
		return "resume", errFellBack
	}
	return "resume", nil
}

// resumeFallbacks reads the device's dev_resume_fallbacks counter.
func (c *client) resumeFallbacks() int64 {
	var buf [8]int64
	return c.dev.AppendMetrics(buf[:0])[c.fallbackCol]
}

// column is the index of name in a telemetry schema; the schemas are
// fixed at build time, so a missing column is a programming error.
func column(schema []string, name string) int {
	for i, s := range schema {
		if s == name {
			return i
		}
	}
	panic("perfbench: no telemetry column " + name)
}

// enrollMixed enrolls one fresh account id per three page requests on
// the device's session.
func enrollMixed(fl *fleet, c *client) (string, error) {
	if c.ops%4 != 0 {
		return "page", c.browse()
	}
	id := fmt.Sprintf("d%d-enr-%d", c.i, c.ops)
	if err := c.dev.Register(c.now, id, "recovery-pw"); err != nil {
		return "enroll", err
	}
	c.okCalls++
	c.enrolled = append(c.enrolled, id)
	return "enroll", nil
}
