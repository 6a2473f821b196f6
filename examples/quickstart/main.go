// Quickstart: the full pipeline on one email, end to end over real
// sockets — generate a typo domain, serve its Table 1 DNS zone, run a
// catch-all SMTP server for it, resolve the MX like a sending MTA would,
// deliver a mistyped email over TCP, and classify it with the five-layer
// funnel.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"time"

	"repro/internal/dnsserve"
	"repro/internal/dnswire"
	"repro/internal/mailmsg"
	"repro/internal/resolve"
	"repro/internal/smtpc"
	"repro/internal/smtpd"
	"repro/internal/spamfilter"
	"repro/internal/typogen"
)

func main() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// 1. Pick a typo domain of gmail.com the way the study did: a
	// fat-finger mistake with low visual distance.
	opts := typogen.AllOps()
	opts.FatFingerOnly = true
	opts.MaxVisual = 0.2
	typos := typogen.Generate("gmail.com", opts)
	typo := typos[0].Domain
	fmt.Printf("registered typo domain: %s (%s at position %d)\n", typo, typos[0].Op, typos[0].Position)

	// 2. Serve its DNS zone: wildcard+apex MX and A records (Table 1).
	store := dnsserve.NewStore()
	store.Put(dnsserve.TypoZone(typo, dnswire.IPv4(127, 0, 0, 1)))
	dnsSrv := dnsserve.NewServer(store)
	dnsBound := make(chan net.Addr, 1)
	go dnsSrv.ListenAndServe(ctx, "127.0.0.1:0", dnsBound)
	dnsAddr := (<-dnsBound).String()
	fmt.Printf("authoritative DNS on %s\n", dnsAddr)

	// 3. Run the catch-all SMTP collection server.
	delivered := make(chan *smtpd.Envelope, 1)
	smtpSrv, err := smtpd.NewServer(smtpd.Config{
		Hostname: typo,
		Deliver:  func(e *smtpd.Envelope) error { delivered <- e; return nil },
	})
	if err != nil {
		log.Fatal(err)
	}
	smtpBound := make(chan net.Addr, 1)
	go smtpSrv.ListenAndServe(ctx, "127.0.0.1:0", smtpBound)
	smtpAddr := (<-smtpBound).String()
	fmt.Printf("catch-all SMTP on %s\n", smtpAddr)

	// 4. A sending MTA resolves where mail for the typo domain goes.
	r := resolve.New(&resolve.UDPExchanger{Server: dnsAddr}, resolve.WithSeed(1))
	hosts, implicit, err := r.MailHosts(ctx, typo)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mail route for %s: %v (implicit MX: %v)\n", typo, hosts, implicit)

	// 5. Alice meant to write bob@gmail.com...
	msg := mailmsg.NewBuilder("alice@example.org", "bob@"+typo, "lunch thursday?").
		Date(time.Now()).
		MessageID("quickstart-1@example.org").
		Body("Bob — does noon on Thursday still work?\n— Alice\n").
		Build()
	client := &smtpc.Client{HelloName: "mta.example.org", Timeout: 5 * time.Second}
	// (The MX resolves to the typo domain; in this sandbox its server
	// listens on smtpAddr rather than port 25.)
	if err := client.Send(ctx, smtpAddr, smtpc.ModePlain, "alice@example.org", []string{"bob@" + typo}, msg.Bytes()); err != nil {
		log.Fatal(err)
	}
	env := <-delivered
	// Print only values this demo chose itself a few lines up; the
	// captured envelope stays out of the output so keyleak's
	// sanitize-before-output invariant holds even in example code.
	fmt.Printf("collected email from alice@example.org to bob@%s (%d bytes sent)\n", typo, len(msg.Bytes()))

	// 6. Classify it through the funnel.
	parsed, err := mailmsg.Parse(env.Data)
	if err != nil {
		log.Fatal(err)
	}
	classifier := spamfilter.NewClassifier(spamfilter.Config{OurDomains: map[string]bool{typo: true}})
	result := classifier.ClassifyOne(&spamfilter.Email{
		Msg: parsed, ServerDomain: typo, RcptAddr: env.Rcpts[0],
		SenderAddr: env.MailFrom, Received: env.Received,
	})
	fmt.Printf("funnel verdict: %v\n", result.Verdict)
	if result.Verdict != spamfilter.VerdictReceiverTypo {
		log.Fatalf("expected a receiver typo, got %v", result.Verdict)
	}
	fmt.Println("quickstart complete: one mistyped email captured and classified")
	smtpSrv.Close()
	dnsSrv.Close()
}
