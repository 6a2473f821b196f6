// Command collector runs the live collection infrastructure on
// localhost: an authoritative DNS server answering Table 1-style zones
// for every study domain, and a catch-all SMTP server that classifies
// each arriving email through the five-layer funnel and stores survivors
// encrypted.
//
// Try it:
//
//	collector -dns 127.0.0.1:5353 -smtp 127.0.0.1:2525 &
//	dig @127.0.0.1 -p 5353 smtp.gmial.com MX
//	swaks --server 127.0.0.1:2525 --to anyone@gmial.com --from you@gmail.com
//
// Usage:
//
//	collector [-dns addr] [-smtp addr] [-tls]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"sync"
	"syscall"

	"repro/internal/core"
	"repro/internal/dnsserve"
	"repro/internal/dnswire"
	"repro/internal/mailmsg"
	"repro/internal/sanitize"
	"repro/internal/smtpd"
	"repro/internal/spamfilter"
	"repro/internal/vault"
)

func main() {
	dnsAddr := flag.String("dns", "127.0.0.1:5353", "UDP address for the authoritative DNS server")
	smtpAddr := flag.String("smtp", "127.0.0.1:2525", "TCP address for the catch-all SMTP server")
	useTLS := flag.Bool("tls", false, "advertise STARTTLS with a self-signed certificate")
	passphrase := flag.String("vault", "key-on-removable-storage", "vault passphrase")
	salt := flag.String("salt", "salt-on-removable-storage", "sanitizer redaction salt (kept off-server in the real deployment)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	domains := core.AllStudyDomains()
	ourDomains := map[string]bool{}
	// canonDomain maps a recipient's domain back to the configured study
	// domain string, so logs and vault metadata only ever carry our own
	// registered names — never text lifted from an incoming envelope.
	canonDomain := map[string]string{}
	store := dnsserve.NewStore()
	for _, d := range domains {
		ourDomains[d.Name] = true
		canonDomain[d.Name] = d.Name
		store.Put(dnsserve.TypoZone(d.Name, dnswire.IPv4(127, 0, 0, 1)))
	}

	v, err := vault.Open(vault.DeriveKey(*passphrase))
	if err != nil {
		log.Fatalf("collector: %v", err)
	}
	defer v.Close()
	sanitizer := sanitize.New(*salt)
	classifier := spamfilter.NewClassifier(spamfilter.Config{OurDomains: ourDomains})
	// The classifier's Layer 3 state is plain maps that ClassifyOne
	// writes, and smtpd delivers from concurrent sessions.
	var classifyMu sync.Mutex

	dnsSrv := dnsserve.NewServer(store)
	dnsBound := make(chan net.Addr, 1)
	go func() {
		if err := dnsSrv.ListenAndServe(ctx, *dnsAddr, dnsBound); err != nil && ctx.Err() == nil {
			log.Fatalf("collector: dns: %v", err)
		}
	}()
	log.Printf("DNS serving %d zones on %v", store.Len(), <-dnsBound)

	cfg := smtpd.Config{
		Hostname: "collector.study.example",
		Deliver: func(env *smtpd.Envelope) error {
			msg, err := mailmsg.Parse(env.Data)
			if err != nil {
				return fmt.Errorf("unparseable message: %w", err)
			}
			rcpt := ""
			if len(env.Rcpts) > 0 {
				rcpt = env.Rcpts[0]
			}
			serverDomain := mailmsg.AddrDomain(rcpt)
			email := &spamfilter.Email{
				Msg: msg, ServerDomain: serverDomain, RcptAddr: rcpt,
				SenderAddr: env.MailFrom, Received: env.Received,
			}
			classifyMu.Lock()
			r := classifier.ClassifyOne(email)
			classifyMu.Unlock()
			// Clear logs carry only our own canonical domain name and the
			// funnel verdict (the paper's metadata/content split) — never
			// addresses or bytes from the envelope itself.
			domain, known := canonDomain[serverDomain]
			if !known {
				domain = "(unregistered domain)"
			}
			log.Printf("email for %s at %s: %v", domain, env.Received.Format("2006-01-02T15:04:05Z07:00"), r.Verdict)
			if r.Verdict.IsTrueTypo() {
				// Section 4.2.2: every stored byte passes through the regex
				// sanitizer first; only then is it encrypted at rest.
				clean, _ := sanitizer.Redact(string(env.Data))
				if _, err := v.Put(domain, r.Verdict.String(), env.Received, []byte(clean)); err != nil {
					return err
				}
			}
			return nil
		},
	}
	if *useTLS {
		names := make([]string, 0, len(domains))
		for _, d := range domains {
			names = append(names, d.Name)
		}
		tlsCfg, err := smtpd.SelfSignedTLS(names...)
		if err != nil {
			log.Fatalf("collector: tls: %v", err)
		}
		cfg.TLS = tlsCfg
	}
	smtpSrv, err := smtpd.NewServer(cfg)
	if err != nil {
		log.Fatalf("collector: %v", err)
	}
	smtpBound := make(chan net.Addr, 1)
	go func() {
		if err := smtpSrv.ListenAndServe(ctx, *smtpAddr, smtpBound); err != nil && ctx.Err() == nil {
			log.Fatalf("collector: smtp: %v", err)
		}
	}()
	log.Printf("SMTP catch-all on %v (TLS=%v)", <-smtpBound, *useTLS)

	<-ctx.Done()
	smtpSrv.Close()
	dnsSrv.Close()
	sessions, delivered := smtpSrv.Stats()
	log.Printf("shutting down: %d sessions, %d delivered, %d vaulted, %d DNS queries",
		sessions, delivered, v.Len(), dnsSrv.Served())
}
