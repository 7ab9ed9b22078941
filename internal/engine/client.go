package engine

import (
	"bytes"
	"fmt"
	"sync"

	"recycle/internal/config"
	"recycle/internal/planstore"
	"recycle/internal/profile"
	"recycle/internal/schedule"
)

// Client is a fetch-only view of a shared replicated plan store: it
// derives the same key namespace an Engine with the same configuration
// uses, but carries no planner, no solver and no plan cache. A remote
// executor holds one to pull compiled Program artifacts directly from
// the store — the coordinator that solved and compiled them does not have
// to be alive, which is what makes the plan service horizontally
// shardable. Every fetch reads the store; a Client decodes once per
// distinct bytes.
type Client struct {
	store *planstore.Store
	fp    string
	mu    sync.Mutex // guards the last decode: its bytes and Program
	data  []byte
	prog  *schedule.Program
}

// NewClient builds a fetch-only store view for a job. opts supplies only
// the namespace-relevant knobs (Techniques, UnrollIterations, CostModel);
// the rest is ignored. The derived fingerprint must match the serving
// engine's, so pass the same options the engine was built with.
func NewClient(store *planstore.Store, job config.Job, stats profile.Stats, opts Options) *Client {
	return &Client{store: store, fp: newConf(job, stats, opts).fp}
}

// SplicedProgram fetches and decodes the spliced Program published under
// the given event identifier (Engine.PublishSplicedProgram). No runtime
// reads one — each derives its splice from the in-flight Program and the
// event — so only the benchmark's control-plane probe times this fetch.
func (c *Client) SplicedProgram(event string) (*schedule.Program, error) {
	return fetchSpliced(c.store, c.fp, event)
}

// fetchSpliced is the shared store fetch for spliced-Program artifacts.
func fetchSpliced(store *planstore.Store, fp, event string) (*schedule.Program, error) {
	data, ok, err := store.Get(spliceKey(fp, event))
	if err != nil {
		return nil, fmt.Errorf("engine: spliced program fetch: %w", err)
	}
	if !ok {
		return nil, fmt.Errorf("engine: no replicated spliced program for event %q (namespace %s)", event, fp)
	}
	return DecodeProgram(data)
}

// ProgramFor fetches and decodes the compiled Program artifact for a
// concrete failed-worker set. It never compiles: the artifact exists iff
// an engine sharing the store lowered that schedule and replicated it.
// Bytes equal to the last ones decoded return that Program, plain timeline
// included, whatever the key: equal bytes decode to equal Programs. Other
// bytes are decoded, every check run, and kept if valid.
func (c *Client) ProgramFor(failed map[schedule.Worker]bool) (*schedule.Program, error) {
	ws := workerList(failed)
	data, ok, err := c.store.Get(programKey(c.fp, ws))
	if err != nil {
		return nil, fmt.Errorf("engine: client program fetch: %w", err)
	}
	if !ok {
		return nil, fmt.Errorf("engine: no replicated program for %v (namespace %s)", ws, c.fp)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.prog == nil || !bytes.Equal(data, c.data) {
		prog, err := DecodeProgram(data)
		if err != nil {
			return nil, err
		}
		c.data, c.prog = data, prog
	}
	return c.prog, nil
}
