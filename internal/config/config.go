// Package config is the layered daemon configuration for cliod: a flat
// key=value config file (clio.conf), CLIO_* environment variables, and
// command-line flags merged in that order — flags win over environment, which
// wins over the file, which wins over the built-in defaults.
//
// The paper's log service is a shared departmental server; running it that
// way needs more than flags. A Config carries everything the daemon can be
// told — store geometry, listen addresses, group-commit and compaction knobs,
// cluster membership, drain behavior, and the tenant table with per-tenant
// quotas — and Validate rejects nonsense (negative quotas, a compaction
// live-fraction outside (0,1], cluster flags without peers) before the
// daemon touches the store.
//
// Every value is set through Set(key, value), the single point all three
// layers funnel through, so the file, the environment and the flags cannot
// drift in how they parse a knob. Set records which keys were touched;
// Validate uses that to tell "quorum left at its default" from "quorum
// explicitly set" when checking cluster coherence.
package config

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Tenant is one tenant's declaration: a top-level namespace prefix (log
// files under /<name>), the shared secret its sessions authenticate with,
// and its quotas. A zero quota means unlimited.
type Tenant struct {
	// Name is the tenant's namespace: the top-level path segment its log
	// files live under. It must be a valid path segment (no "/", not
	// empty, no leading dot — dotted roots are reserved system sublogs).
	Name string
	// Token is the shared secret presented in the session handshake.
	Token string
	// MaxLogs bounds how many log files may exist under the tenant's
	// namespace (existing logs are counted at first bind).
	MaxLogs int64
	// MaxBytes bounds the entry bytes the tenant may append over the
	// daemon's lifetime (storage is write-once: appended bytes are the
	// tenant's storage footprint growth).
	MaxBytes int64
	// MaxSessions bounds the tenant's concurrently authenticated
	// connections.
	MaxSessions int64
}

// Config is the merged daemon configuration. Field defaults match the
// long-standing cliod flag defaults; Default() is the canonical source.
type Config struct {
	Store              string
	Listen             string
	Create             bool
	Shards             int
	VolumeBlocks       int
	BlockSize          int
	Sync               bool
	CheckpointInterval int
	Admin              string
	SlowTrace          time.Duration
	Peers              string
	Advertise          string
	Role               string
	Quorum             int
	ForceWindow        time.Duration
	CompactInterval    time.Duration
	CompactMaxLive     float64
	CompactMinHot      int
	// DrainTimeout bounds the graceful SIGTERM drain: how long in-flight
	// requests and group commits may run before connections are forced
	// closed.
	DrainTimeout time.Duration

	// Tenants is the tenant table, keyed by name. Empty means open
	// (single-tenant, unauthenticated) mode.
	Tenants map[string]*Tenant

	// set records which keys Set has touched, across all layers.
	set map[string]bool
}

// DefaultDrainTimeout bounds the graceful drain when none is configured.
const DefaultDrainTimeout = 30 * time.Second

// Default returns the built-in configuration, equal to cliod's historical
// flag defaults.
func Default() *Config {
	return &Config{
		Listen:       ":7846",
		VolumeBlocks: 1 << 20,
		BlockSize:    1024,
		SlowTrace:    100 * time.Millisecond,
		Role:         "leader",
		Quorum:       2,
		DrainTimeout: DefaultDrainTimeout,
		Tenants:      map[string]*Tenant{},
		set:          map[string]bool{},
	}
}

// IsSet reports whether any layer explicitly set key.
func (c *Config) IsSet(key string) bool { return c.set[key] }

// Keys every layer may set, in the spelling of the cliod flags.
var boolKeys = map[string]bool{"create": true, "sync": true}

// Set parses and applies one key. It is the single merge point for the
// file, environment and flag layers.
func (c *Config) Set(key, value string) error {
	fail := func(err error) error {
		return fmt.Errorf("config: %s = %q: %w", key, value, err)
	}
	if name, field, ok := tenantKey(key); ok {
		if err := c.setTenant(name, field, value); err != nil {
			return fail(err)
		}
		c.set[key] = true
		return nil
	}
	var err error
	switch key {
	case "store":
		c.Store = value
	case "listen":
		c.Listen = value
	case "create":
		c.Create, err = parseBool(value)
	case "shards":
		c.Shards, err = strconv.Atoi(value)
	case "volume-blocks":
		c.VolumeBlocks, err = strconv.Atoi(value)
	case "block-size":
		c.BlockSize, err = strconv.Atoi(value)
	case "sync":
		c.Sync, err = parseBool(value)
	case "checkpoint-interval":
		c.CheckpointInterval, err = strconv.Atoi(value)
	case "admin":
		c.Admin = value
	case "slow-trace":
		c.SlowTrace, err = time.ParseDuration(value)
	case "peers":
		c.Peers = value
	case "advertise":
		c.Advertise = value
	case "role":
		c.Role = value
	case "quorum":
		c.Quorum, err = strconv.Atoi(value)
	case "force-window":
		c.ForceWindow, err = time.ParseDuration(value)
	case "compact-interval":
		c.CompactInterval, err = time.ParseDuration(value)
	case "compact-max-live":
		c.CompactMaxLive, err = strconv.ParseFloat(value, 64)
	case "compact-min-hot":
		c.CompactMinHot, err = strconv.Atoi(value)
	case "drain-timeout":
		c.DrainTimeout, err = time.ParseDuration(value)
	default:
		return fmt.Errorf("config: unknown key %q", key)
	}
	if err != nil {
		return fail(err)
	}
	c.set[key] = true
	return nil
}

// parseBool accepts the flag-package spellings.
func parseBool(v string) (bool, error) {
	b, err := strconv.ParseBool(v)
	if err != nil {
		return false, fmt.Errorf("not a boolean")
	}
	return b, nil
}

// tenantKey splits "tenant.<name>.<field>" into its parts.
func tenantKey(key string) (name, field string, ok bool) {
	rest, found := strings.CutPrefix(key, "tenant.")
	if !found {
		return "", "", false
	}
	i := strings.LastIndexByte(rest, '.')
	if i <= 0 || i == len(rest)-1 {
		return "", "", false
	}
	return rest[:i], rest[i+1:], true
}

func (c *Config) setTenant(name, field, value string) error {
	if c.Tenants == nil {
		c.Tenants = map[string]*Tenant{}
	}
	t := c.Tenants[name]
	if t == nil {
		t = &Tenant{Name: name}
		c.Tenants[name] = t
	}
	var err error
	switch field {
	case "token":
		t.Token = value
	case "max-logs":
		t.MaxLogs, err = strconv.ParseInt(value, 10, 64)
	case "max-bytes":
		t.MaxBytes, err = strconv.ParseInt(value, 10, 64)
	case "max-sessions":
		t.MaxSessions, err = strconv.ParseInt(value, 10, 64)
	default:
		return fmt.Errorf("unknown tenant field %q", field)
	}
	return err
}

// LoadFile merges a flat key=value file into the config. Blank lines and
// #-comments are ignored; keys are the flag spellings plus
// tenant.<name>.{token,max-logs,max-bytes,max-sessions}.
func (c *Config) LoadFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, value, found := strings.Cut(line, "=")
		if !found {
			return fmt.Errorf("config: %s:%d: not a key=value line: %q", path, i+1, line)
		}
		if err := c.Set(strings.TrimSpace(key), strings.TrimSpace(value)); err != nil {
			return fmt.Errorf("%s:%d: %w", path, i+1, err)
		}
	}
	return nil
}

// EnvPrefix is the environment layer's variable prefix.
const EnvPrefix = "CLIO_"

// envKeys are the keys the environment layer may set: every scalar knob
// (tenant declarations are file- or flag-layer only — secrets in process
// environments leak through /proc and `ps e`).
var envKeys = []string{
	"store", "listen", "create", "shards", "volume-blocks", "block-size",
	"sync", "checkpoint-interval", "admin", "slow-trace", "peers",
	"advertise", "role", "quorum", "force-window", "compact-interval",
	"compact-max-live", "compact-min-hot", "drain-timeout",
}

// EnvVar maps a config key to its environment variable name
// ("volume-blocks" → "CLIO_VOLUME_BLOCKS").
func EnvVar(key string) string {
	return EnvPrefix + strings.ToUpper(strings.ReplaceAll(key, "-", "_"))
}

// ApplyEnv merges CLIO_* environment variables via lookup (os.LookupEnv in
// the daemon; tests inject a map).
func (c *Config) ApplyEnv(lookup func(string) (string, bool)) error {
	for _, key := range envKeys {
		if v, ok := lookup(EnvVar(key)); ok {
			if err := c.Set(key, v); err != nil {
				return err
			}
		}
	}
	return nil
}

// TenantList returns the tenant table as a slice sorted by name, the shape
// the server's SetTenants consumes.
func (c *Config) TenantList() []Tenant {
	out := make([]Tenant, 0, len(c.Tenants))
	for _, t := range c.Tenants {
		out = append(out, *t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Validate rejects configurations that must not reach the store. It returns
// the first problem found.
func (c *Config) Validate() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("config: "+format, args...)
	}
	if c.Store == "" {
		return bad("store is required (flag -store, key store, or %s)", EnvVar("store"))
	}
	if c.Shards < 0 {
		return bad("shards %d is negative", c.Shards)
	}
	if c.VolumeBlocks <= 0 {
		return bad("volume-blocks %d must be positive", c.VolumeBlocks)
	}
	if c.BlockSize <= 0 {
		return bad("block-size %d must be positive", c.BlockSize)
	}
	if c.CheckpointInterval < 0 {
		return bad("checkpoint-interval %d is negative", c.CheckpointInterval)
	}
	if c.SlowTrace < 0 {
		return bad("slow-trace %s is negative", c.SlowTrace)
	}
	if c.CompactInterval < 0 {
		return bad("compact-interval %s is negative", c.CompactInterval)
	}
	if c.CompactMaxLive < 0 || c.CompactMaxLive > 1 {
		return bad("compact-max-live %g outside (0,1] (0 = default)", c.CompactMaxLive)
	}
	if c.CompactMinHot < 0 {
		return bad("compact-min-hot %d is negative", c.CompactMinHot)
	}
	if c.DrainTimeout < 0 {
		return bad("drain-timeout %s is negative", c.DrainTimeout)
	}
	if c.ForceWindow > 0 {
		return bad("force-window %s: only 0 (adaptive) or negative (leader/rider queue) is supported", c.ForceWindow)
	}
	if c.Role != "leader" && c.Role != "follower" {
		return bad("role must be leader or follower, not %q", c.Role)
	}
	if c.Peers == "" {
		// Cluster knobs are meaningless without peers; accepting them
		// silently would hide a typo'd -peers from the operator.
		for _, key := range []string{"advertise", "role", "quorum"} {
			if c.IsSet(key) {
				return bad("%s set without peers (cluster mode needs -peers)", key)
			}
		}
	} else {
		if c.Quorum < 1 {
			return bad("quorum %d must be at least 1", c.Quorum)
		}
		if c.CompactInterval > 0 {
			return bad("compact-interval is not supported in cluster mode: the compactor deletes volume files a replica must mirror exactly")
		}
	}
	names := make([]string, 0, len(c.Tenants))
	for name := range c.Tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t := c.Tenants[name]
		switch {
		case name == "" || strings.ContainsAny(name, "/ \t"):
			return bad("tenant name %q is not a path segment", name)
		case strings.HasPrefix(name, "."):
			return bad("tenant name %q collides with reserved system sublogs", name)
		case t.Token == "":
			return bad("tenant %s has no token", name)
		case t.MaxLogs < 0 || t.MaxBytes < 0 || t.MaxSessions < 0:
			return bad("tenant %s has a negative quota (logs %d, bytes %d, sessions %d)",
				name, t.MaxLogs, t.MaxBytes, t.MaxSessions)
		}
	}
	return nil
}

// Reloadable reports whether key may change across a SIGHUP reload without a
// restart. Tenant keys (quotas, tokens, membership) and the knobs the
// daemon consults continuously are reloadable; store geometry, addresses
// and cluster membership are not.
func Reloadable(key string) bool {
	if _, _, ok := tenantKey(key); ok {
		return true
	}
	switch key {
	case "compact-interval", "compact-max-live", "compact-min-hot",
		"slow-trace", "drain-timeout":
		return true
	}
	return false
}

// Diff lists the scalar keys whose values differ between c and other, in
// stable order. Tenant table changes are reported as the single pseudo-key
// "tenants".
func (c *Config) Diff(other *Config) []string {
	var out []string
	add := func(key string, differs bool) {
		if differs {
			out = append(out, key)
		}
	}
	add("store", c.Store != other.Store)
	add("listen", c.Listen != other.Listen)
	add("create", c.Create != other.Create)
	add("shards", c.Shards != other.Shards)
	add("volume-blocks", c.VolumeBlocks != other.VolumeBlocks)
	add("block-size", c.BlockSize != other.BlockSize)
	add("sync", c.Sync != other.Sync)
	add("checkpoint-interval", c.CheckpointInterval != other.CheckpointInterval)
	add("admin", c.Admin != other.Admin)
	add("slow-trace", c.SlowTrace != other.SlowTrace)
	add("peers", c.Peers != other.Peers)
	add("advertise", c.Advertise != other.Advertise)
	add("role", c.Role != other.Role)
	add("quorum", c.Quorum != other.Quorum)
	add("force-window", c.ForceWindow != other.ForceWindow)
	add("compact-interval", c.CompactInterval != other.CompactInterval)
	add("compact-max-live", c.CompactMaxLive != other.CompactMaxLive)
	add("compact-min-hot", c.CompactMinHot != other.CompactMinHot)
	add("drain-timeout", c.DrainTimeout != other.DrainTimeout)
	add("tenants", !tenantsEqual(c.Tenants, other.Tenants))
	return out
}

func tenantsEqual(a, b map[string]*Tenant) bool {
	if len(a) != len(b) {
		return false
	}
	for name, ta := range a {
		tb := b[name]
		if tb == nil || *ta != *tb {
			return false
		}
	}
	return true
}
