package cluster

import (
	"reflect"
	"strings"
	"testing"

	"perfknow/internal/dmfclient"
	"perfknow/internal/perfdmf"
)

// TestStoreHasOneSpelling: the stores spell each operation once. No
// exported method X has a sibling XContext on a Store implementation,
// except the two Repository methods the benchmark module still calls.
func TestStoreHasOneSpelling(t *testing.T) {
	pinned := map[string]string{
		"*perfdmf.Repository.Save":     "bench/oracle.go:82, bench/system.go:294",
		"*perfdmf.Repository.GetTrial": "bench/oracle.go:113",
	}
	for _, v := range []any{(*dmfclient.Client)(nil), (*ShardedStore)(nil), (*perfdmf.Repository)(nil)} {
		typ := reflect.TypeOf(v)
		for i := 0; i < typ.NumMethod(); i++ {
			name := typ.Method(i).Name
			if strings.HasSuffix(name, "Context") {
				continue
			}
			if _, ok := typ.MethodByName(name + "Context"); !ok {
				continue
			}
			if _, ok := pinned[typ.String()+"."+name]; ok {
				continue
			}
			t.Errorf("%s has both %s and %sContext", typ, name, name)
		}
	}
}
