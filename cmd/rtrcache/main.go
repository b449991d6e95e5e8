// Command rtrcache validates a simulated world's RPKI repositories and
// serves the resulting VRPs over the RPKI-to-Router protocol (RFC 8210) on
// a TCP listener — the role Routinator plays for real routers. Any RTR
// client can connect, Reset Query, and receive the full payload set.
//
// Usage:
//
//	rtrcache -listen 127.0.0.1:8282 -size small -seed 1 -day 0
//	rtrcache -print -size small                 # just print the VRPs
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"

	"github.com/netsec-lab/rovista/internal/core"
	"github.com/netsec-lab/rovista/internal/rtr"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:8282", "TCP listen address")
	size := flag.String("size", "small", "world size: small, smoke, medium or large")
	seed := flag.Int64("seed", 1, "world seed")
	day := flag.Int("day", 0, "validation day")
	printOnly := flag.Bool("print", false, "print VRPs and exit instead of serving")
	oneshot := flag.Bool("oneshot", false, "serve a single connection, then exit")
	query := flag.String("query", "", "act as an RTR client: sync from this cache address and print a summary")
	flag.Parse()

	if *query != "" {
		conn, err := net.Dial("tcp", *query)
		if err != nil {
			log.Fatal(err)
		}
		defer conn.Close()
		c := rtr.NewClient(conn)
		if err := c.Reset(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("synced %d VRPs at serial %d from %s\n", c.Len(), c.Serial(), *query)
		return
	}

	cfg, err := core.WorldConfigByName(*size, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rtrcache:", err)
		os.Exit(2)
	}
	w, err := core.BuildWorld(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := w.AdvanceTo(*day); err != nil {
		log.Fatal(err)
	}

	if *printOnly {
		for _, v := range w.VRPs.All() {
			fmt.Println(v)
		}
		return
	}

	cache := rtr.NewCache(uint16(*seed))
	cache.Update(w.VRPs)
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	defer ln.Close()
	log.Printf("rtrcache: serving %d VRPs (serial %d) on %v", w.VRPs.Len(), cache.Serial(), ln.Addr())

	for {
		conn, err := ln.Accept()
		if err != nil {
			log.Fatal(err)
		}
		if *oneshot {
			if err := cache.Serve(conn); err != nil {
				log.Printf("rtrcache: session: %v", err)
			}
			conn.Close()
			return
		}
		go func(c net.Conn) {
			defer c.Close()
			if err := cache.Serve(c); err != nil {
				log.Printf("rtrcache: session: %v", err)
			}
		}(conn)
	}
}
