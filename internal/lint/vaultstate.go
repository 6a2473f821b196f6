package lint

import (
	"go/ast"
	"strings"
)

// VaultStateAnalyzer (L5) checks the vault lifecycle protocol: no
// Put/Get/Export or spill-queue operation may reach a store after
// Close on any path, and segment rotation/compaction is only legal
// from the open state. Tracked objects are vault.Vault, vault.LogVault,
// values behind the vault.Store interface, and core's pendQueue and
// pendFIFO; the protocol table is vaultProtocol in typestate.go.
var VaultStateAnalyzer = &Analyzer{
	Name: "vaultstate",
	Doc:  "vault/spill-queue used or rotated after Close (vault lifecycle protocol)",
	Run:  runVaultState,
}

// vaultEventNames maps tracked-type method names to vault protocol
// events. Pure observers (Len, Meta, Stats, path) stay unmapped and
// are protocol-neutral; Surrender hands the cleartext out and Export
// walks live segments, so both require the open state like Put/Get.
var vaultEventNames = map[string]string{
	// vault.Vault / vault.LogVault / vault.Store
	"Put":       "use",
	"Get":       "use",
	"Export":    "use",
	"Surrender": "use",
	"Compact":   "rotate",
	"rotate":    "rotate",
	"Close":     "close",
	// core's pendQueue and pendFIFO (unexported lifecycles, same shape)
	"add":   "use",
	"take":  "use",
	"drop":  "use",
	"spill": "use",
	"seal":  "use",
	"drain": "use",
	"close": "close",
}

func runVaultState(pass *Pass) {
	runProtoTracker(pass, &protoTracker{
		proto:   vaultProtocol,
		tracked: vaultTrackedType,
		eventOf: func(_ *Pass, _ *ast.CallExpr, method string) string {
			return vaultEventNames[method]
		},
	})
}

func vaultTrackedType(pass *Pass, pkgPath, typeName string) bool {
	mod := pass.Prog.Module
	switch strings.TrimPrefix(pkgPath, mod+"/") {
	case "internal/vault":
		return typeName == "Vault" || typeName == "LogVault" || typeName == "Store"
	case "internal/core":
		return typeName == "pendQueue" || typeName == "pendFIFO"
	}
	return false
}
