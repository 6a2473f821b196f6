package repro

// Chaos soak: the full Experiment-1 collection pipeline — typo-domain
// smtpd, authoritative DNS, WHOIS, honey probes — driven through
// faultnet under escalating fault rates. The paper's infrastructure ran
// unattended for seven months against the open Internet (§4); this soak
// asserts the invariants that make that survivable:
//
//   1. accounting reconciles: every server session traces back to a
//      client dial that survived its dial-time faults, and graceful
//      endings plus aborts sum to the sessions seen;
//   2. deliveries are consistent: the server delivered at least every
//      send the client saw succeed, and no more than were attempted;
//   3. every stored message passed sanitize before vault.Put;
//   4. no goroutine leaks and clean shutdown, under -race;
//   5. a fixed seed replays bit-for-bit: identical fault trace and
//      identical counters across runs (TestChaosSoak/replay-identical);
//   6. faults never alter what is delivered: every delivery is
//      byte-identical to the message the soak sent to its recipient.
//
// Invariant 6 makes the soak's content a fixed set of 12 messages
// (chaosMessage). The engine-vs-stdlib regex differentials run over
// copies of them in their own packages: internal/sanitize's
// TestEngineOracleCorpus and internal/spamfilter's
// TestPrepareDecideMatchesOracle, each pinned to chaosSHA256.
//
// Determinism contract: the workload is sequential, so faultnet conn IDs
// are allocated in a fixed order. Client-side read faults are disabled
// (read-op counts depend on kernel packet coalescing, so per-read draws
// would not replay); read-side damage comes from per-connection
// truncation, drawn at dial time. Server-side faults are limited to
// write fragmentation, which is outcome-invariant and drawn on a
// deterministic op count. Failures print the seed; replay with
// CHAOS_SEED=<seed> go test -race -run TestChaosSoak

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net"
	"os"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dnsserve"
	"repro/internal/dnswire"
	"repro/internal/faultnet"
	"repro/internal/mailmsg"
	"repro/internal/probe"
	"repro/internal/resolve"
	"repro/internal/sanitize"
	"repro/internal/smtpc"
	"repro/internal/smtpd"
	"repro/internal/vault"
	"repro/internal/whois"
)

// chaosVaultConfig selects the evidence store behind the soak's Deliver
// hook. The zero value keeps the in-memory store; setting dir switches
// to the log-structured segment vault, with segBytes shrunk so rotation
// and compaction fire even on a dozen-send soak. reopen closes and
// reopens the vault mid-soak — the crash-replay path: segment replay
// must lose no records and every survivor must still decrypt and hold
// the sanitize invariant.
type chaosVaultConfig struct {
	dir      string
	segBytes int64
	reopen   bool
}

// chaosClientPlan derives the client-side fault plan from one composite
// rate. Read-op faults stay zero (see the determinism contract above).
func chaosClientPlan(rate float64) faultnet.Plan {
	return faultnet.Plan{
		DialRefuseRate:  rate / 10,
		DialTimeoutRate: rate / 20,
		DialLatencyRate: rate / 2,
		LatencyMin:      50 * time.Microsecond,
		LatencyMax:      500 * time.Microsecond,
		TruncateRate:    rate / 4,
		TruncateMin:     16,
		TruncateMax:     512,
		Write: faultnet.DirPlan{
			LatencyRate: rate / 2,
			LatencyMin:  50 * time.Microsecond,
			LatencyMax:  500 * time.Microsecond,
			PartialRate: rate,
			ResetRate:   rate / 10,
		},
	}
}

// chaosServerPlan fragments server reply writes — outcome-invariant
// stress on the clients' reply parsers.
func chaosServerPlan(rate float64) faultnet.Plan {
	return faultnet.Plan{Write: faultnet.DirPlan{PartialRate: rate}}
}

// chaosResult is every counter a run produces; replay-identical compares
// two of these for equality.
type chaosResult struct {
	SendAttempts int
	SendOK       int
	Delivered    int64
	VaultLen     int
	Sessions     int64
	Quits        int64
	Aborts       int64
	SMTPConns    int64
	ProbeConns   int64
	ResolveOK    int
	ResolveFail  int
	WhoisOK      int
	WhoisFail    int
	DialFaults   int64 // dial-refused + dial-timeout across SMTP and probe nets
	// IntactChecked counts the deliveries compared with the message sent
	// to their recipient; IntactMismatches, those that differed, must
	// stay zero at every fault rate.
	IntactChecked    int64
	IntactMismatches int64
	Trace            string
}

// chaosSends is how many messages the soak sends, one per recipient.
const chaosSends = 12

// chaosMessage is the message the soak sends to chaosRcpt(i).
func chaosMessage(i int) *mailmsg.Message {
	return mailmsg.NewBuilder("alice@gmail.com", chaosRcpt(i), fmt.Sprintf("chaos-%d", i)).
		Body("card 4111 1111 1111 1111 and ssn 078-05-1120\n").Build()
}

func chaosRcpt(i int) string { return fmt.Sprintf("u%d@gmial.com", i) }

// chaosSHA256 is the SHA-256 of the chaosSends messages' bytes in send
// order. The package differentials that copy chaosMessage pin the same
// digest; TestChaosMessagesPinned fails here when the messages change.
const chaosSHA256 = "728d4dde32bb3488f87c5fbe570318c5424a16a3717e1c0b703606cfeadcff95"

// TestChaosMessagesPinned holds chaosMessage to chaosSHA256.
func TestChaosMessagesPinned(t *testing.T) {
	h := sha256.New()
	for i := 0; i < chaosSends; i++ {
		h.Write(chaosMessage(i).Bytes())
	}
	if sum := hex.EncodeToString(h.Sum(nil)); sum != chaosSHA256 {
		t.Fatalf("chaos messages hash to %s, want %s: update the copies in internal/sanitize and internal/spamfilter with the digest", sum, chaosSHA256)
	}
}

func chaosSeed(t *testing.T) int64 {
	t.Helper()
	if s := os.Getenv("CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("CHAOS_SEED=%q: %v", s, err)
		}
		return v
	}
	return 20160604 // the paper's collection start, as a date
}

// runChaos drives one full pipeline pass at the given composite fault
// rate and asserts the reconciliation invariants.
func runChaos(t *testing.T, seed int64, rate float64, vc chaosVaultConfig) chaosResult {
	t.Helper()
	baseGoroutines := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	const typoDomain = "gmial.com"
	const sends = chaosSends
	const probes = 4
	const whoisQueries = 4

	// Independent client nets per protocol so per-protocol accounting
	// stays exact; distinct seeds decorrelate their fault streams.
	cnetSMTP := faultnet.New(seed, chaosClientPlan(rate))
	cnetProbe := faultnet.New(seed+1, chaosClientPlan(rate))
	cnetDNS := faultnet.New(seed+2, chaosClientPlan(rate))
	cnetWHOIS := faultnet.New(seed+3, chaosClientPlan(rate))
	snet := faultnet.New(seed+4, chaosServerPlan(rate))

	// DNS.
	store := dnsserve.NewStore()
	store.Put(dnsserve.TypoZone(typoDomain, dnswire.IPv4(127, 0, 0, 1)))
	dnsSrv := dnsserve.NewServer(store)
	dnsBound := make(chan net.Addr, 1)
	dnsDone := make(chan struct{})
	go func() { defer close(dnsDone); dnsSrv.ListenAndServe(ctx, "127.0.0.1:0", dnsBound) }()
	resolver := resolve.New(&resolve.UDPExchanger{
		Server:  (<-dnsBound).String(),
		Timeout: 500 * time.Millisecond,
		Retries: 2,
		Backoff: time.Millisecond,
		Dialer:  cnetDNS.Dialer(nil),
	}, resolve.WithSeed(seed))

	// SMTP behind the server-side fault listener; Deliver sanitizes
	// before anything reaches the vault.
	sani := sanitize.New("chaos-salt")
	key := vault.DeriveKey("chaos-pass")
	openVault := func() (vault.Store, error) {
		if vc.dir == "" {
			return vault.Open(key)
		}
		return vault.OpenLog(key, vc.dir, vault.LogOptions{MaxSegmentBytes: vc.segBytes})
	}
	v, err := openVault()
	if err != nil {
		t.Fatal(err)
	}
	var deliverMu sync.Mutex
	var delivered, intactChecked, intactMismatches int64
	sent := make(map[string][]byte, sends)
	for i := 0; i < sends; i++ {
		sent[chaosRcpt(i)] = chaosMessage(i).Bytes()
	}
	smtpSrv, err := smtpd.NewServer(smtpd.Config{
		Hostname: typoDomain,
		Timeout:  2 * time.Second,
		Listen:   snet.Listen,
		Deliver: func(e *smtpd.Envelope) error {
			clean, _ := sani.Redact(string(e.Data))
			deliverMu.Lock()
			defer deliverMu.Unlock()
			intactChecked++
			if len(e.Rcpts) != 1 || !bytes.Equal(e.Data, sent[e.Rcpts[0]]) {
				intactMismatches++
			}
			if _, perr := v.Put(typoDomain, "chaos", e.Received, []byte(clean)); perr != nil {
				return perr
			}
			delivered++
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	smtpBound := make(chan net.Addr, 1)
	smtpDone := make(chan struct{})
	go func() { defer close(smtpDone); smtpSrv.ListenAndServe(ctx, "127.0.0.1:0", smtpBound) }()
	smtpAddr := (<-smtpBound).String()

	// WHOIS behind the same server-side fault net.
	whoisSrv := whois.NewServer(whois.MapDirectory{
		typoDomain: {Domain: typoDomain, RegistrantName: "Mickey Mouse", Registrar: "ChaosReg"},
	})
	whoisLn, err := snet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	whoisDone := make(chan struct{})
	go func() { defer close(whoisDone); whoisSrv.Serve(ctx, whoisLn) }()

	var res chaosResult

	// Phase 1: sequential resolve-then-send, with retry on transient
	// failures — the simulated-user side of Experiment 1.
	client := &smtpc.Client{
		HelloName:      "mta.sender.example",
		Timeout:        2 * time.Second,
		SessionTimeout: 5 * time.Second,
		Dialer:         cnetSMTP.Dialer(nil),
	}
	policy := smtpc.RetryPolicy{
		MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond, Seed: seed,
	}
	for i := 0; i < sends; i++ {
		if vc.reopen && i == sends/2 {
			// Crash-replay mid-soak: close the segment vault and reopen it
			// from disk. Replay must restore exactly the records stored so
			// far, each still decryptable. Deliver reads v under deliverMu,
			// so the swap is invisible to in-flight sessions.
			deliverMu.Lock()
			wantLen := v.Len()
			wantMeta := v.Meta()
			if cerr := v.Close(); cerr != nil {
				t.Errorf("mid-soak vault close: %v", cerr)
			}
			nv, oerr := openVault()
			if oerr != nil {
				deliverMu.Unlock()
				t.Fatalf("mid-soak vault reopen: %v", oerr)
			}
			if nv.Len() != wantLen {
				t.Errorf("crash-replay lost records: reopened with %d, had %d", nv.Len(), wantLen)
			}
			for _, rec := range wantMeta {
				if _, _, gerr := nv.Get(rec.ID); gerr != nil {
					t.Errorf("record %d unreadable after crash-replay: %v", rec.ID, gerr)
				}
			}
			v = nv
			deliverMu.Unlock()
		}
		if _, _, rerr := resolver.MailHosts(ctx, typoDomain); rerr == nil {
			res.ResolveOK++
		} else {
			res.ResolveFail++
		}
		attempts, serr := client.SendRetry(ctx, policy, smtpAddr, smtpc.ModePlain,
			"alice@gmail.com", []string{chaosRcpt(i)}, sent[chaosRcpt(i)])
		res.SendAttempts += attempts
		if serr == nil {
			res.SendOK++
		}
	}

	// Phase 2: honey probes of the collection server itself.
	prober := &probe.AddrProber{
		Timeout: 2 * time.Second,
		Dialer:  cnetProbe.Dialer(nil),
		Retries: 1, BaseDelay: time.Millisecond, Seed: seed,
	}
	for i := 0; i < probes; i++ {
		prober.Probe(ctx, smtpAddr, typoDomain)
	}

	// Phase 3: WHOIS crawl.
	for i := 0; i < whoisQueries; i++ {
		if _, werr := whois.QueryVia(ctx, cnetWHOIS.Dialer(nil), whoisLn.Addr().String(), typoDomain); werr == nil {
			res.WhoisOK++
		} else {
			res.WhoisFail++
		}
	}

	// Shutdown: close servers (each waits for its sessions), then verify
	// every goroutine we started is gone.
	cancel()
	smtpSrv.Close()
	whoisSrv.Close()
	dnsSrv.Close()
	<-smtpDone
	<-whoisDone
	<-dnsDone

	res.Sessions, res.Delivered = smtpSrv.Stats()
	res.Quits, res.Aborts = smtpSrv.SessionStats()
	if res.Delivered != delivered {
		t.Errorf("server delivered %d, Deliver hook saw %d", res.Delivered, delivered)
	}
	res.IntactChecked, res.IntactMismatches = intactChecked, intactMismatches
	// Invariant 6: no fault alters a delivered message.
	if res.IntactMismatches != 0 {
		t.Errorf("%d of %d deliveries differ from the message sent",
			res.IntactMismatches, res.IntactChecked)
	}
	if res.IntactChecked != delivered {
		t.Errorf("checked %d deliveries, delivered %d", res.IntactChecked, delivered)
	}
	res.VaultLen = v.Len()
	res.SMTPConns = cnetSMTP.Conns()
	res.ProbeConns = cnetProbe.Conns()
	smtpCounts := cnetSMTP.Counts()
	probeCounts := cnetProbe.Counts()
	res.DialFaults = smtpCounts[faultnet.KindDialRefused] + smtpCounts[faultnet.KindDialTimeout] +
		probeCounts[faultnet.KindDialRefused] + probeCounts[faultnet.KindDialTimeout]
	res.Trace = "--- smtp\n" + cnetSMTP.TraceString() +
		"--- probe\n" + cnetProbe.TraceString() +
		"--- dns\n" + cnetDNS.TraceString() +
		"--- whois\n" + cnetWHOIS.TraceString() +
		"--- server\n" + snet.TraceString()

	// Invariant 1: accounting reconciles. Every SMTP-server session is a
	// client dial (send or probe) that survived its dial-time faults, and
	// finished sessions split exactly into graceful quits and aborts.
	if reached := res.SMTPConns + res.ProbeConns - res.DialFaults; res.Sessions != reached {
		t.Errorf("sessions = %d, want %d (smtp %d + probe %d dials - %d dial faults)",
			res.Sessions, reached, res.SMTPConns, res.ProbeConns, res.DialFaults)
	}
	if res.Quits+res.Aborts != res.Sessions {
		t.Errorf("quits %d + aborts %d != sessions %d", res.Quits, res.Aborts, res.Sessions)
	}
	// Invariant 2: delivery consistency.
	if res.Delivered < int64(res.SendOK) {
		t.Errorf("delivered %d < client-confirmed %d", res.Delivered, res.SendOK)
	}
	if res.Delivered > int64(res.SendAttempts) {
		t.Errorf("delivered %d > attempts %d", res.Delivered, res.SendAttempts)
	}
	// Invariant 3: everything stored was sanitized first (Deliver is the
	// only vault writer, and it redacts before Put).
	if int64(res.VaultLen) != res.Delivered {
		t.Errorf("vault holds %d, delivered %d", res.VaultLen, res.Delivered)
	}
	for _, rec := range v.Meta() {
		text, _, gerr := v.Get(rec.ID)
		if gerr != nil {
			t.Fatalf("vault.Get(%d): %v", rec.ID, gerr)
		}
		for i, seg := range splitTokens(string(text)) {
			if i%2 == 0 {
				for _, c := range seg {
					if c >= '1' && c <= '9' {
						t.Fatalf("unsanitized digits in vault record %d: %q", rec.ID, seg)
					}
				}
			}
		}
	}
	// Segment-vault extras: with tiny segments, rotation must actually
	// have fired; a full compaction pass must preserve exactly the live
	// record set (Export is byte-stable because the sealed payloads are
	// persisted, not re-encrypted); and the files must close cleanly.
	if vc.dir != "" {
		lv := v.(*vault.LogVault)
		if st := lv.Stats(); res.Delivered > 2 && st.Segments < 3 {
			t.Errorf("tiny segments (%d bytes) never rotated: %d records in %d segment(s)",
				vc.segBytes, res.Delivered, st.Segments)
		}
		var before, after bytes.Buffer
		if eerr := lv.Export(&before); eerr != nil {
			t.Errorf("pre-compaction export: %v", eerr)
		}
		if cerr := lv.Compact(); cerr != nil {
			t.Errorf("compaction: %v", cerr)
		}
		if eerr := lv.Export(&after); eerr != nil {
			t.Errorf("post-compaction export: %v", eerr)
		}
		if !bytes.Equal(before.Bytes(), after.Bytes()) {
			t.Errorf("compaction changed the live record set (%d -> %d export bytes)",
				before.Len(), after.Len())
		}
		if lv.Len() != res.VaultLen {
			t.Errorf("compaction changed Len: %d -> %d", res.VaultLen, lv.Len())
		}
		if cerr := lv.Close(); cerr != nil {
			t.Errorf("vault close: %v", cerr)
		}
	}

	// Invariant 4: nothing we started is still running.
	waitNoLeakedGoroutines(t, baseGoroutines)
	return res
}

func splitTokens(s string) []string {
	const sentinel = "*_|R|_*"
	var out []string
	for {
		i := indexOf(s, sentinel)
		if i < 0 {
			return append(out, s)
		}
		out = append(out, s[:i])
		s = s[i+len(sentinel):]
	}
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func waitNoLeakedGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Errorf("goroutine leak: %d running, started with %d\n%s",
		runtime.NumGoroutine(), base, buf[:n])
}

// chaosStreamingSpill soaks the streaming collection path end-to-end
// with everything shrunk to hostile sizes: a spill budget small enough
// that pending-day traffic hits encrypted disk segments on nearly every
// chunk, and vault segments small enough that rotation fires on nearly
// every Put. It then crash-replays the vault (Close + OpenLog from the
// segment files), compacts, and runs the differential against an
// in-memory reference: same seed, one chunk of the whole window with the
// survivor log and vault resident, record-by-record metadata and
// plaintext equality.
func chaosStreamingSpill(t *testing.T, seed int64) {
	vaultDir := t.TempDir()
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.Days = 40
	cfg.StreamChunkDays = 3
	cfg.SpillDir = t.TempDir()
	cfg.SpillBudgetBytes = 1 << 14
	cfg.VaultDir = vaultDir
	cfg.VaultSegmentBytes = 1 << 10
	study, err := core.NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := study.Run(); err != nil {
		t.Fatal(err)
	}
	lv := study.Vault.(*vault.LogVault)
	if st := lv.Stats(); st.Segments < 3 {
		t.Errorf("tiny segments never rotated: %d segment(s) for %d records", st.Segments, lv.Len())
	}
	wantLen := lv.Len()
	var before bytes.Buffer
	if err := lv.Export(&before); err != nil {
		t.Fatal(err)
	}
	if err := lv.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash-replay: reopen from the segment files alone, then compact.
	// Both must preserve exactly the live record set.
	lv2, err := vault.OpenLog(vault.DeriveKey(cfg.VaultPassphrase), vaultDir, vault.LogOptions{})
	if err != nil {
		t.Fatalf("crash-replay reopen: %v", err)
	}
	defer lv2.Close()
	if lv2.Len() != wantLen {
		t.Errorf("crash-replay lost records: %d, had %d", lv2.Len(), wantLen)
	}
	if err := lv2.Compact(); err != nil {
		t.Fatal(err)
	}
	var after bytes.Buffer
	if err := lv2.Export(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Errorf("export diverged across crash-replay + compaction (%d -> %d bytes)",
			before.Len(), after.Len())
	}

	// Differential reference: a one-chunk run with nothing on disk must
	// hold the same records — IDs, metadata, and decrypted content.
	rcfg := cfg
	rcfg.StreamChunkDays = cfg.Days
	rcfg.SpillDir, rcfg.VaultDir = "", ""
	rstudy, err := core.NewStudy(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rstudy.Run(); err != nil {
		t.Fatal(err)
	}
	ref := rstudy.Vault
	if ref.Len() != wantLen {
		t.Fatalf("reference stored %d records, streaming vault %d", ref.Len(), wantLen)
	}
	for _, rrec := range ref.Meta() {
		rtext, _, gerr := ref.Get(rrec.ID)
		if gerr != nil {
			t.Fatalf("reference Get(%d): %v", rrec.ID, gerr)
		}
		stext, srec, gerr := lv2.Get(rrec.ID)
		if gerr != nil {
			t.Fatalf("streaming vault Get(%d): %v", rrec.ID, gerr)
		}
		if srec.Domain != rrec.Domain || srec.Verdict != rrec.Verdict || !srec.Received.Equal(rrec.Received) {
			t.Errorf("record %d metadata diverged: %+v vs reference %+v", rrec.ID, srec, rrec)
		}
		if !bytes.Equal(stext, rtext) {
			t.Errorf("record %d plaintext diverged from the reference", rrec.ID)
		}
	}
}

// TestChaosSoak runs the pipeline at escalating composite fault rates.
// The acceptance bar: at ≥20%% the accounting still reconciles with zero
// leaked goroutines, and a fixed seed replays bit-for-bit.
func TestChaosSoak(t *testing.T) {
	seed := chaosSeed(t)
	t.Logf("chaos seed %d — replay with: CHAOS_SEED=%d go test -race -run TestChaosSoak", seed, seed)
	for _, rate := range []float64{0, 0.05, 0.1, 0.2, 0.35} {
		rate := rate
		t.Run(fmt.Sprintf("rate=%.2f", rate), func(t *testing.T) {
			res := runChaos(t, seed+int64(rate*100), rate, chaosVaultConfig{})
			t.Logf("attempts=%d ok=%d delivered=%d sessions=%d quits=%d aborts=%d dialFaults=%d",
				res.SendAttempts, res.SendOK, res.Delivered, res.Sessions, res.Quits, res.Aborts, res.DialFaults)
			if rate == 0 {
				// The fault-free floor must be perfect.
				if res.SendOK != 12 || res.Delivered != 12 || res.SendAttempts != 12 {
					t.Errorf("fault-free run lost mail: %+v", res)
				}
				if res.Trace != "--- smtp\n--- probe\n--- dns\n--- whois\n--- server\n" {
					t.Errorf("fault-free run recorded faults:\n%s", res.Trace)
				}
			}
		})
	}
	// Escalating-fault pass against the log-structured vault: 256-byte
	// segments force rotation on nearly every Put, and the mid-soak
	// reopen exercises crash-replay while sessions are still coming.
	t.Run("segment-vault", func(t *testing.T) {
		for _, rate := range []float64{0, 0.1, 0.35} {
			rate := rate
			t.Run(fmt.Sprintf("rate=%.2f", rate), func(t *testing.T) {
				res := runChaos(t, seed+int64(1000+rate*100), rate,
					chaosVaultConfig{dir: t.TempDir(), segBytes: 256, reopen: true})
				t.Logf("segment vault: delivered=%d vault=%d sessions=%d",
					res.Delivered, res.VaultLen, res.Sessions)
				if rate == 0 && res.Delivered != 12 {
					t.Errorf("fault-free segment-vault run lost mail: %+v", res)
				}
			})
		}
	})
	t.Run("streaming-spill", func(t *testing.T) { chaosStreamingSpill(t, seed) })
	t.Run("replay-identical", func(t *testing.T) {
		a := runChaos(t, seed, 0.2, chaosVaultConfig{})
		b := runChaos(t, seed, 0.2, chaosVaultConfig{})
		if a.Trace != b.Trace {
			t.Errorf("fault traces diverged across replays:\n--- run A\n%s\n--- run B\n%s", a.Trace, b.Trace)
		}
		a.Trace, b.Trace = "", ""
		if a != b {
			t.Errorf("counters diverged across replays:\nA: %+v\nB: %+v", a, b)
		}
	})
}
