package obs

import (
	"fmt"
	"reflect"
	"sync"
)

// SnapshotVersion is the wire version of the registry's JSON shape; bump
// it whenever the Snapshot structure changes incompatibly.
const SnapshotVersion = 1

// Snapshot is the registry's versioned export: counters grouped by
// subsystem. Map keys serialize sorted, so the JSON is deterministic.
type Snapshot struct {
	Version int                         `json:"version"`
	Groups  map[string]map[string]int64 `json:"groups"`
}

// Registry folds counters from every subsystem — engine.Metrics, runtime
// op counters, trace counters — into one named-group table with
// expvar-style JSON exposition. Safe for concurrent use.
type Registry struct {
	mu     sync.Mutex
	groups map[string]map[string]int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{groups: make(map[string]map[string]int64)}
}

func (r *Registry) group(name string) map[string]int64 {
	g, ok := r.groups[name]
	if !ok {
		g = make(map[string]int64)
		r.groups[name] = g
	}
	return g
}

// Set stores counter group.name = v.
func (r *Registry) Set(group, name string, v int64) {
	r.mu.Lock()
	r.group(group)[name] = v
	r.mu.Unlock()
}

// SetAll stores every counter of m into the group.
func (r *Registry) SetAll(group string, m map[string]int64) {
	r.mu.Lock()
	g := r.group(group)
	for k, v := range m {
		g[k] = v
	}
	r.mu.Unlock()
}

// PublishStruct folds a counter struct (or pointer to one) into the
// group: every exported integer field becomes a counter named after the
// field. This is how engine.Metrics lands in the registry without obs
// importing engine.
func (r *Registry) PublishStruct(group string, s any) error {
	v := reflect.ValueOf(s)
	for v.Kind() == reflect.Pointer {
		if v.IsNil() {
			return fmt.Errorf("obs: publishing nil %T", s)
		}
		v = v.Elem()
	}
	if v.Kind() != reflect.Struct {
		return fmt.Errorf("obs: publishing non-struct %T", s)
	}
	t := v.Type()
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.group(group)
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		fv := v.Field(i)
		switch fv.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			g[f.Name] = fv.Int()
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			g[f.Name] = int64(fv.Uint())
		}
	}
	return nil
}

// Snapshot returns a deep copy of the current counters.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := Snapshot{Version: SnapshotVersion, Groups: make(map[string]map[string]int64, len(r.groups))}
	for name, g := range r.groups {
		cp := make(map[string]int64, len(g))
		for k, v := range g {
			cp[k] = v
		}
		out.Groups[name] = cp
	}
	return out
}
