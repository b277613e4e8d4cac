package config

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func writeConf(t *testing.T, lines ...string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "clio.conf")
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLayeringPrecedence(t *testing.T) {
	// File sets three keys; env overrides one and adds one; an explicit
	// "flag" Set overrides again. Later layers must win.
	path := writeConf(t,
		"# departmental log server",
		"store = /var/lib/clio",
		"listen = :9000",
		"shards = 4",
		"",
		"tenant.acme.token = s3cret",
		"tenant.acme.max-logs = 10",
	)
	cfg := Default()
	if err := cfg.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	env := map[string]string{
		"CLIO_LISTEN":        ":9100",
		"CLIO_VOLUME_BLOCKS": "2048",
	}
	lookup := func(k string) (string, bool) { v, ok := env[k]; return v, ok }
	if err := cfg.ApplyEnv(lookup); err != nil {
		t.Fatal(err)
	}
	if err := cfg.Set("listen", ":9200"); err != nil { // flag layer
		t.Fatal(err)
	}
	if cfg.Store != "/var/lib/clio" {
		t.Errorf("store = %q", cfg.Store)
	}
	if cfg.Listen != ":9200" {
		t.Errorf("listen = %q, want flag layer to win", cfg.Listen)
	}
	if cfg.VolumeBlocks != 2048 {
		t.Errorf("volume-blocks = %d, want env layer over default", cfg.VolumeBlocks)
	}
	if cfg.Shards != 4 {
		t.Errorf("shards = %d", cfg.Shards)
	}
	tn := cfg.Tenants["acme"]
	if tn == nil || tn.Token != "s3cret" || tn.MaxLogs != 10 {
		t.Errorf("tenant acme = %+v", tn)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	if !cfg.IsSet("listen") || cfg.IsSet("block-size") {
		t.Error("IsSet does not track the touched keys")
	}
}

func TestEnvCannotDeclareTenants(t *testing.T) {
	// Tenant tokens are secrets; the environment layer must not carry them.
	cfg := Default()
	env := map[string]string{"CLIO_TENANT_ACME_TOKEN": "leak"}
	lookup := func(k string) (string, bool) { v, ok := env[k]; return v, ok }
	if err := cfg.ApplyEnv(lookup); err != nil {
		t.Fatal(err)
	}
	if len(cfg.Tenants) != 0 {
		t.Errorf("env layer declared tenants: %v", cfg.Tenants)
	}
}

func TestLoadFileErrorsCarryLineNumbers(t *testing.T) {
	path := writeConf(t, "store = /x", "not a key value line")
	cfg := Default()
	err := cfg.LoadFile(path)
	if err == nil || !strings.Contains(err.Error(), ":2") {
		t.Errorf("want line-numbered error, got %v", err)
	}
	path = writeConf(t, "bogus-key = 1")
	if err := Default().LoadFile(path); err == nil || !strings.Contains(err.Error(), "bogus-key") {
		t.Errorf("unknown key accepted: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	base := func() *Config {
		c := Default()
		c.Store = "/var/lib/clio"
		return c
	}
	cases := []struct {
		name string
		mut  func(*Config) error
		want string
	}{
		{"no store", func(c *Config) error { c.Store = ""; return nil }, "store is required"},
		{"negative shards", func(c *Config) error { return c.Set("shards", "-1") }, "negative"},
		{"zero block size", func(c *Config) error { return c.Set("block-size", "0") }, "positive"},
		{"max-live above 1", func(c *Config) error { return c.Set("compact-max-live", "1.5") }, "outside (0,1]"},
		{"max-live negative", func(c *Config) error { return c.Set("compact-max-live", "-0.1") }, "outside (0,1]"},
		{"negative drain", func(c *Config) error { return c.Set("drain-timeout", "-1s") }, "negative"},
		{"fixed force window", func(c *Config) error { return c.Set("force-window", "1ms") }, "force-window"},
		{"bad role", func(c *Config) error { return c.Set("role", "observer") }, "role"},
		{"cluster flag without peers", func(c *Config) error { return c.Set("quorum", "3") }, "without peers"},
		{"advertise without peers", func(c *Config) error { return c.Set("advertise", "a:1") }, "without peers"},
		{"zero quorum with peers", func(c *Config) error {
			if err := c.Set("peers", "b:1"); err != nil {
				return err
			}
			return c.Set("quorum", "0")
		}, "quorum"},
		{"compaction in cluster mode", func(c *Config) error {
			if err := c.Set("peers", "b:1"); err != nil {
				return err
			}
			return c.Set("compact-interval", "1m")
		}, "cluster"},
		{"tenant without token", func(c *Config) error { return c.Set("tenant.acme.max-logs", "5") }, "no token"},
		{"tenant negative quota", func(c *Config) error {
			if err := c.Set("tenant.acme.token", "s"); err != nil {
				return err
			}
			return c.Set("tenant.acme.max-bytes", "-1")
		}, "negative quota"},
		{"dotted tenant name", func(c *Config) error { return c.Set("tenant..offsets.token", "s") }, "reserved"},
	}
	for _, tc := range cases {
		c := base()
		if err := tc.mut(c); err != nil {
			t.Errorf("%s: Set failed: %v", tc.name, err)
			continue
		}
		err := c.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate() = %v, want error containing %q", tc.name, err, tc.want)
		}
	}
	if err := base().Validate(); err != nil {
		t.Errorf("baseline config invalid: %v", err)
	}
}

func TestSetParseErrors(t *testing.T) {
	cfg := Default()
	for key, bad := range map[string]string{
		"shards":        "many",
		"create":        "yep",
		"slow-trace":    "fast",
		"quorum":        "2.5",
		"drain-timeout": "30",
	} {
		if err := cfg.Set(key, bad); err == nil {
			t.Errorf("Set(%s, %q) accepted", key, bad)
		}
	}
}

func TestReloadableAndDiff(t *testing.T) {
	for key, want := range map[string]bool{
		"tenant.acme.token":    true,
		"tenant.acme.max-logs": true,
		"slow-trace":           true,
		"compact-interval":     true,
		"drain-timeout":        true,
		"store":                false,
		"listen":               false,
		"peers":                false,
		"block-size":           false,
	} {
		if Reloadable(key) != want {
			t.Errorf("Reloadable(%s) = %v, want %v", key, !want, want)
		}
	}
	a := Default()
	a.Store = "/x"
	b := Default()
	b.Store = "/x"
	if diff := a.Diff(b); len(diff) != 0 {
		t.Errorf("identical configs diff: %v", diff)
	}
	b.SlowTrace = time.Second
	b.Listen = ":1"
	if err := b.Set("tenant.acme.token", "s"); err != nil {
		t.Fatal(err)
	}
	got := a.Diff(b)
	want := []string{"listen", "slow-trace", "tenants"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Diff = %v, want %v", got, want)
	}
}

func TestTenantList(t *testing.T) {
	cfg := Default()
	for _, k := range []string{"tenant.zed.token=z", "tenant.acme.token=a"} {
		key, val, _ := strings.Cut(k, "=")
		if err := cfg.Set(key, val); err != nil {
			t.Fatal(err)
		}
	}
	list := cfg.TenantList()
	if len(list) != 2 || list[0].Name != "acme" || list[1].Name != "zed" {
		t.Errorf("TenantList = %+v, want sorted by name", list)
	}
}
