"""Golden figure fixtures: the tiny-scale results of ``tests/test_harness.py``
(plus fig7c and headtohead) and the text the parent commit's ``format_*``
functions rendered from them.  Captured at commit 2ec05c9, before those
functions were deleted; the CDF point lists, which no table reads, are cut
to five points.  Never regenerate TEXT from the current renderer."""

RESULTS = {'fig5a': {'profiles': {'AS3967': {'rofl_cumulative': [308, 1282, 5126],
                                   'cmu_cumulative': [1679, 8392, 33570],
                                   'cmu_over_rofl': [5.451298701298701,
                                                     6.546021840873635,
                                                     6.548966055403824],
                                   'diameter': 11}},
           'host_counts': [10, 50, 200],
           'perf': {}},
 'fig5b': {'AS3967': {'cdf': [(4, 0.006666666666666667),
                              (8, 0.013333333333333334), (10, 0.02),
                              (12, 0.02666666666666667),
                              (12, 0.03333333333333333)],
                      'median': 26,
                      'p95': 37,
                      'mean': 25.36,
                      'diameter': 11,
                      'per_diameter': 2.305454545454545},
           'perf': {}},
 'fig5c': {'AS3967': {'cdf': [(1.2, 0.01), (9.459287434727294, 0.02),
                              (9.671919054015504, 0.03),
                              (9.992795632960897, 0.04),
                              (10.021965151113832, 0.05)],
                      'median_ms': 31.23905806518394,
                      'p95_ms': 46.241758842014136,
                      'mean_ms': 29.935324884191896},
           'perf': {}},
 'fig6a': {'profile': 'AS3967',
           'series': [(0, 3.3105775643590776), (512, 1.9138894951920153)],
           'tcam_entries': 73728,
           'perf': {}},
 'fig6b': {'profile': 'AS3967',
           'series': [(0, 0.08921513269339357, 0.08942819148936171),
                      (1, 0.06888763410502541, 0.07347074468085106),
                      (2, 0.05928853754940711, 0.05784574468085106),
                      (3, 0.044042913608131, 0.03889627659574468),
                      (4, 0.039525691699604744, 0.03523936170212766)],
           'max_fraction_ospf': 0.08921513269339357,
           'max_fraction_rofl': 0.08942819148936171,
           'top_decile_ratio': 0.9723963345094266,
           'perf': {}},
 'fig6c': {'profile': 'AS3967',
           'series': [{'ids': 10,
                       'rofl_avg_entries': 6.895522388059701,
                       'cmu_avg_entries': 10.0,
                       'cmu_over_rofl': 1.4502164502164503},
                      {'ids': 100,
                       'rofl_avg_entries': 14.955223880597014,
                       'cmu_avg_entries': 100.0,
                       'cmu_over_rofl': 6.686626746506986}],
           'perf': {}},
 'fig7': {'profile': 'AS3967',
          'series': [{'ids_per_pop': 1,
                      'ids_in_pop': 9,
                      'repair_messages': 629,
                      'rejoin_baseline': 286.875},
                     {'ids_per_pop': 8,
                      'ids_in_pop': 14,
                      'repair_messages': 1111,
                      'rejoin_baseline': 350.21875}],
          'perf': {}},
 'fig7b': {'profile': 'AS3967',
           'avg_join': 25.36,
           'avg_failure': 59.56666666666667,
           'failure_over_join': 2.3488433228180865,
           'perf': {}},
 'fig7c': {'profile': 'AS3967',
           'series': [{'router': 'r30', 'repair_messages': 344},
                      {'router': 'r42', 'repair_messages': 336}],
           'avg_join': 24.57547169811321,
           'avg_repair': 340.0,
           'repair_over_join': 13.834932821497121,
           'delivery_rate': 1.0,
           'min_window_delivery_rate': 1.0,
           'perf': {}},
 'fig8a': {'strategies': {'ephemeral': {'moving_avg_tail': 28.208333333333332,
                                        'mean': 24.625,
                                        'mean_fingers': 0.0,
                                        'cdf': [(0, 0.008333333333333333),
                                                (2, 0.016666666666666666),
                                                (2, 0.025),
                                                (2, 0.03333333333333333),
                                                (2, 0.041666666666666664)],
                                        'mismatches': 0},
                          'single-homed': {'moving_avg_tail': 46.166666666666664,
                                           'mean': 41.775,
                                           'mean_fingers': 7.691666666666666,
                                           'cdf': [(6, 0.008333333333333333),
                                                   (20, 0.016666666666666666),
                                                   (20, 0.025),
                                                   (20, 0.03333333333333333),
                                                   (20, 0.041666666666666664)],
                                           'mismatches': 0},
                          'multihomed': {'moving_avg_tail': 46.166666666666664,
                                         'mean': 42.55,
                                         'mean_fingers': 7.691666666666666,
                                         'cdf': [(6, 0.008333333333333333),
                                                 (20, 0.016666666666666666),
                                                 (20, 0.025),
                                                 (20, 0.03333333333333333),
                                                 (20, 0.041666666666666664)],
                                         'mismatches': 0},
                          'peering': {'moving_avg_tail': 53.583333333333336,
                                      'mean': 47.041666666666664,
                                      'mean_fingers': 7.691666666666666,
                                      'cdf': [(6, 0.008333333333333333),
                                              (20, 0.016666666666666666),
                                              (20, 0.025),
                                              (20, 0.03333333333333333),
                                              (20, 0.041666666666666664)],
                                      'mismatches': 0}},
           'extrapolation_600M': {'ephemeral': 73.7,
                                  'single-homed': 100.5,
                                  'multihomed': 100.5,
                                  'peering': 459.8},
           'perf': {}},
 'fig8b': {'fingers': {0: {'cdf': [(1.0, 0.00909090909090909),
                                   (1.0, 0.01818181818181818),
                                   (1.0, 0.02727272727272727),
                                   (1.0, 0.03636363636363636),
                                   (1.0, 0.045454545454545456)],
                           'mean': 2.9275757575757573},
                       12: {'cdf': [(0.8, 0.00909090909090909),
                                    (1.0, 0.01818181818181818),
                                    (1.0, 0.02727272727272727),
                                    (1.0, 0.03636363636363636),
                                    (1.0, 0.045454545454545456)],
                            'mean': 1.99530303030303}},
           'bgp_policy': {'cdf': [(1.0, 0.008333333333333333),
                                  (1.0, 0.016666666666666666), (1.0, 0.025),
                                  (1.0, 0.03333333333333333),
                                  (1.0, 0.041666666666666664)],
                          'mean': 1.0909722222222222},
           'perf': {}},
 'fig8c': {'series': [{'cache_entries': 0,
                       'cache_mbits_per_as': 0.0,
                       'mean_stretch': 2.4151515151515155},
                      {'cache_entries': 512,
                       'cache_mbits_per_as': 0.065536,
                       'mean_stretch': 2.1843939393939396}],
           'perf': {}},
 'fig8d': {'failures': [{'stub': 'S-22',
                         'ids': 2,
                         'repair_messages': 34,
                         'messages_per_id': 17.0,
                         'transit_paths_affected': 0.04050632911392405,
                         'endpoint_paths_affected': 0.027848101265822784,
                         'endpoint_fraction_600M': 3.3333333333333334e-09,
                         'post_delivery': 1.0},
                        {'stub': 'S-30',
                         'ids': 2,
                         'repair_messages': 38,
                         'messages_per_id': 19.0,
                         'transit_paths_affected': 0.017721518987341773,
                         'endpoint_paths_affected': 0.0379746835443038,
                         'endpoint_fraction_600M': 3.3333333333333334e-09,
                         'post_delivery': 1.0},
                        {'stub': 'S-0',
                         'ids': 2,
                         'repair_messages': 20,
                         'messages_per_id': 10.0,
                         'transit_paths_affected': 0.017721518987341773,
                         'endpoint_paths_affected': 0.0379746835443038,
                         'endpoint_fraction_600M': 3.3333333333333334e-09,
                         'post_delivery': 1.0}],
           'perf': {}},
 'fig8e': {'virtual_as': {'mean_join': 46.01,
                          'mean_stretch': 2.119858156028369,
                          'delivery_rate': 1.0,
                          'bloom_mbits_total': 0.8192},
           'bloom': {'mean_join': 42.02,
                     'mean_stretch': 2.3076241134751774,
                     'delivery_rate': 1.0,
                     'bloom_mbits_total': 0.8192},
           'perf': {}},
 'headtohead': {'profile': 'AS3967',
                'n_hosts': 40,
                'n_packets': 60,
                'intra': {'rofl': {'sent': 60,
                                   'delivered': 60,
                                   'mean': 2.1020258980785296,
                                   'p99': 6.0,
                                   'worst': 8.5,
                                   'stretch_bound': None,
                                   'bound_violations': 0,
                                   'messages': {'bootstrap': 11220,
                                                'data': 682,
                                                'join': 1064},
                                   'probe_violations': [],
                                   'memory': {'mean': 17.865671641791046,
                                              'max': 44},
                                   'trace_spans': 60,
                                   'attribution': {'cache': {'hops': 225,
                                                             'stretch': 41.39285714285714},
                                                   'successor': {'hops': 457,
                                                                 'stretch': 78.42261904761904}},
                                   'tail_attribution': {'cache': 5.0,
                                                        'successor': 9.5},
                                   'attribution_mismatches': 0,
                                   'cache': {'hits': 1155,
                                             'misses': 84,
                                             'entries': 555,
                                             'hit_rate': 0.9322033898305084}},
                          'disco': {'sent': 60,
                                    'delivered': 60,
                                    'mean': 1.0890559732664997,
                                    'p99': 1.4,
                                    'worst': 1.5,
                                    'stretch_bound': 3.0,
                                    'bound_violations': 0,
                                    'messages': {'bootstrap': 1690,
                                                 'data': 379,
                                                 'join': 365,
                                                 'lookup': 650},
                                    'probe_violations': [],
                                    'memory': {'mean': 12.91044776119403,
                                               'max': 23},
                                    'trace_spans': 60,
                                    'attribution': {'landmark.descend': {'hops': 118,
                                                                         'stretch': 20.608333333333334},
                                                    'landmark.route': {'hops': 237,
                                                                       'stretch': 37.070238095238096},
                                                    'vicinity.direct': {'hops': 0,
                                                                        'stretch': 0.0},
                                                    'vicinity.shortcut': {'hops': 24,
                                                                          'stretch': 4.397619047619047}},
                                    'tail_attribution': {'landmark.descend': 1.1,
                                                         'landmark.route': 1.8},
                                    'attribution_mismatches': 0,
                                    'cache': {'hits': 2,
                                              'misses': 55,
                                              'evictions': 0,
                                              'invalidations': 0},
                                    'landmarks': 9},
                          'cmu': {'sent': 60,
                                  'delivered': 60,
                                  'mean': 1.0,
                                  'p99': 1.0,
                                  'worst': 1.0,
                                  'stretch_bound': 1.0,
                                  'bound_violations': 0,
                                  'messages': {'data': 348, 'join': 6713},
                                  'probe_violations': [],
                                  'memory': {'mean': 40.0, 'max': 40},
                                  'trace_spans': 0,
                                  'attribution': {},
                                  'tail_attribution': {},
                                  'attribution_mismatches': 0},
                          'ospf': {'sent': 60,
                                   'delivered': 60,
                                   'mean': 1.0,
                                   'p99': 1.0,
                                   'worst': 1.0,
                                   'stretch_bound': 1.0,
                                   'bound_violations': 0,
                                   'messages': {'data': 348},
                                   'probe_violations': [],
                                   'memory': {'mean': 0.0, 'max': 0},
                                   'trace_spans': 0,
                                   'attribution': {},
                                   'tail_attribution': {},
                                   'attribution_mismatches': 0}},
                'disco_all_pairs': {'pairs': 90,
                                    'undelivered': 0,
                                    'max_stretch': 2.5,
                                    'bound': 3.0,
                                    'violations': []},
                'inter': {'rofl': {'sent': 30,
                                   'delivered': 30,
                                   'mean': 1.1363636363636365,
                                   'p99': 2.3333333333333335,
                                   'worst': 2.3333333333333335,
                                   'stretch_bound': None,
                                   'bound_violations': 0,
                                   'messages': {'data': 60, 'join': 787},
                                   'probe_violations': [],
                                   'memory': {'mean': None, 'max': None},
                                   'trace_spans': 30,
                                   'attribution': {'external-successor': {'hops': 18,
                                                                          'stretch': 6.75},
                                                   'finger': {'hops': 42,
                                                              'stretch': 18.25}},
                                   'tail_attribution': {'external-successor': 1.0,
                                                        'finger': 1.3333333333333333},
                                   'attribution_mismatches': 0,
                                   'denominator': 'bgp-policy-path'},
                          'disco': {'sent': 30,
                                    'delivered': 30,
                                    'mean': 1.0,
                                    'p99': 1.0,
                                    'worst': 1.0,
                                    'stretch_bound': 3.0,
                                    'bound_violations': 0,
                                    'messages': {'bootstrap': 221,
                                                 'data': 60,
                                                 'join': 106,
                                                 'lookup': 150},
                                    'probe_violations': [],
                                    'memory': {'mean': 10.0, 'max': 25},
                                    'trace_spans': 30,
                                    'attribution': {'landmark.descend': {'hops': 5,
                                                                         'stretch': 2.6666666666666665},
                                                    'landmark.route': {'hops': 47,
                                                                       'stretch': 20.583333333333332},
                                                    'vicinity.direct': {'hops': 1,
                                                                        'stretch': 1.0},
                                                    'vicinity.shortcut': {'hops': 7,
                                                                          'stretch': 2.75}},
                                    'tail_attribution': {'landmark.descend': 2.6666666666666665,
                                                         'landmark.route': 20.583333333333332,
                                                         'vicinity.direct': 1.0,
                                                         'vicinity.shortcut': 2.75},
                                    'attribution_mismatches': 0,
                                    'cache': {'hits': 2,
                                              'misses': 25,
                                              'evictions': 0,
                                              'invalidations': 0},
                                    'denominator': 'shortest-as-path',
                                    'landmarks': 5}},
                'perf': {}}}

TEXT = {'fig5a': '\n'
          'Fig 5a — intradomain cumulative join overhead\n'
          '---------------------------------------------\n'
          '\n'
          'ISP           hosts      ROFL msgs       CMU msgs   CMU/ROFL\n'
          'AS3967           10            308           1679       5.5x\n'
          'AS3967           50           1282           8392       6.5x\n'
          'AS3967          200           5126          33570       6.5x\n'
          'paper: linear scaling; CMU-ETHERNET 37-181x more messages',
 'fig5b': '\n'
          'Fig 5b — CDF of per-host join overhead [packets]\n'
          '------------------------------------------------\n'
          '\n'
          'ISP          median      p95     mean   diameter    mean/diam\n'
          'AS3967           26       37     25.4         11         2.3x\n'
          'paper: <45 packets per join, roughly 4x network diameter',
 'fig5c': '\n'
          'Fig 5c — CDF of join latency [ms]\n'
          '---------------------------------\n'
          '\n'
          'ISP            median        p95       mean\n'
          'AS3967           31.2       46.2       29.9\n'
          'paper: joins typically complete in under 40 ms',
 'fig6a': '\n'
          'Fig 6a — stretch vs pointer-cache size (AS3967)\n'
          '-----------------------------------------------\n'
          '\n'
          ' cache entries  avg stretch\n'
          '             0         3.31\n'
          '           512         1.91\n'
          'paper: stretch drops to ~1.2-2 at ~70k entries (9 Mbit TCAM)',
 'fig6b': '\n'
          'Fig 6b — load balance vs OSPF (AS3967)\n'
          '--------------------------------------\n'
          '\n'
          'max per-router traffic fraction: OSPF 0.0892  ROFL 0.0894\n'
          'ROFL/OSPF load on the top-decile (hottest) routers: 0.97x\n'
          'paper: difference from OSPF is slight; no significant hot-spots',
 'fig6c': '\n'
          'Fig 6c — avg memory entries per router (AS3967)\n'
          '-----------------------------------------------\n'
          '\n'
          '     IDs     ROFL entries      CMU entries   CMU/ROFL\n'
          '      10              6.9             10.0       1.5x\n'
          '     100             15.0            100.0       6.7x\n'
          'paper: CMU-ETHERNET needs 34-1200x more memory',
 'fig7': '\n'
         'Fig 7 — partition repair overhead (AS3967)\n'
         '------------------------------------------\n'
         '\n'
         ' IDs per PoP    IDs hit    repair msgs  rejoin baseline\n'
         '           1          9            629              287\n'
         '           8         14           1111              350\n'
         "paper: repair on the same order as rejoining the PoP's hosts; "
         'converges correctly in every run',
 'fig7b': '\n'
          '§6.2 — host failure vs join overhead (AS3967)\n'
          '---------------------------------------------\n'
          '\n'
          'avg join 25.4 msgs, avg host-failure repair 59.6 msgs (2.35x)\n'
          'paper: failure/mobility overhead comparable to join overhead',
 'fig7c': '\n'
          '§6.2 — router-failure recovery under traffic (AS3967)\n'
          '-----------------------------------------------------\n'
          '\n'
          '    router    repair msgs\n'
          '       r30            344\n'
          '       r42            336\n'
          'avg repair 340 msgs (13.8x avg join); delivery 1.000 (worst window '
          '1.000)\n'
          'paper: routers recover via failover pointers; traffic keeps '
          'flowing while the ring heals',
 'fig8a': '\n'
          'Fig 8a — interdomain join overhead by strategy\n'
          '----------------------------------------------\n'
          '\n'
          'strategy            mean msgs     tail avg\n'
          'ephemeral                24.6         28.2\n'
          'single-homed             41.8         46.2\n'
          'multihomed               42.5         46.2\n'
          'peering                  47.0         53.6\n'
          "extrapolated to 600M IDs: {'ephemeral': 73.7, 'single-homed': "
          "100.5, 'multihomed': 100.5, 'peering': 459.8}\n"
          'paper: ephemeral ~14, single-homed ~80, multihomed ~100, peering '
          'up to ~445 msgs (600M extrapolation)',
 'fig8b': '\n'
          'Fig 8b — interdomain stretch vs finger count\n'
          '--------------------------------------------\n'
          '\n'
          'fingers        mean stretch\n'
          '0                      2.93\n'
          '12                     2.00\n'
          'BGP-policy             1.09\n'
          'paper: stretch 2.8 @60 fingers falling to 2.3 @160; more fingers '
          '=> less stretch',
 'fig8c': '\n'
          'Fig 8c — interdomain stretch vs per-AS pointer cache\n'
          '----------------------------------------------------\n'
          '\n'
          ' cache entries      Mbit per AS mean stretch\n'
          '             0             0.00         2.42\n'
          '           512             0.07         2.18\n'
          'paper: caching reduces stretch (2 -> 1.33 at 20M entries/AS)',
 'fig8d': '\n'
          '§6.3 — stub-AS failure impact\n'
          '-----------------------------\n'
          '\n'
          'stub       IDs  repair msgs   msgs/ID   transit   endpoint  @600M '
          'scale  delivery\n'
          'S-22         2           34      17.0    4.05%     2.78%   '
          '0.000000%     100%\n'
          'S-30         2           38      19.0    1.77%     3.80%   '
          '0.000000%     100%\n'
          'S-0          2           20      10.0    1.77%     3.80%   '
          '0.000000%     100%\n'
          'paper: 99.998% of paths unaffected (stubs carry no transit — the '
          'transit column must be 0); repair msgs ~ #IDs in stub',
 'fig8e': '\n'
          '§4.2/6.3 — peering: virtual-AS vs bloom filters\n'
          '-----------------------------------------------\n'
          '\n'
          'mode            mean join   mean stretch   delivery       bloom '
          'Mbit\n'
          'virtual_as           46.0           2.12      100%             '
          '0.82\n'
          'bloom                42.0           2.31      100%             '
          '0.82\n'
          'paper: bloom filters cut peering-join overhead to the multihomed '
          'level at the cost of per-AS filter state and slightly higher '
          'stretch (3.29 vs 2.8)',
 'headtohead': '\n'
               'Head-to-head — ROFL vs compact routing on flat labels '
               '(AS3967)\n'
               '--------------------------------------------------------------\n'
               '\n'
               'proto      sent  deliv     mean      p99    worst   bound   '
               'viol  mismatch\n'
               'rofl         60     60     2.10     6.00     8.50     '
               'inf      0         0\n'
               'disco        60     60     1.09     1.40     1.50     '
               '3.0      0         0\n'
               'cmu          60     60     1.00     1.00     1.00     '
               '1.0      0         0\n'
               'ospf         60     60     1.00     1.00     1.00     '
               '1.0      0         0\n'
               '  rofl stretch tail (>=p99) by decision: successor +9.50, '
               'cache +5.00\n'
               '  disco stretch tail (>=p99) by decision: landmark.route '
               '+1.80, landmark.descend +1.10\n'
               'disco all-pairs sweep: 90 pairs, max stretch 2.500 (bound '
               '3.0), 0 undelivered, 0 violations\n'
               'interdomain (bgp-policy-path vs shortest-as-path):\n'
               'rofl         30     30     1.14     2.33     2.33     '
               'inf      0         0\n'
               'disco        30     30     1.00     1.00     1.00     '
               '3.0      0         0\n'
               'Singla et al.: compact routing bounds worst-case stretch at '
               "3; ROFL's tail is unbounded but its common case rides the "
               'ring shortcuts'}

#: The parent's ``render_markdown("Golden", compare=RESULTS["headtohead"])``.
HEADTOHEAD_MARKDOWN = ('# Golden\n'
 '\n'
 '## Stretch head-to-head\n'
 '\n'
 '### intradomain (AS3967)\n'
 '\n'
 '| proto | sent | delivered | mean | p99 | worst | bound | violations | '
 'mismatches |\n'
 '| --- | --- | --- | --- | --- | --- | --- | --- | --- |\n'
 '| rofl | 60 | 60 | 2.10 | 6.00 | 8.50 | inf | 0 | 0 |\n'
 '| disco | 60 | 60 | 1.09 | 1.40 | 1.50 | 3 | 0 | 0 |\n'
 '| cmu | 60 | 60 | 1.00 | 1.00 | 1.00 | 1 | 0 | 0 |\n'
 '| ospf | 60 | 60 | 1.00 | 1.00 | 1.00 | 1 | 0 | 0 |\n'
 '\n'
 '### interdomain\n'
 '\n'
 '| proto | sent | delivered | mean | p99 | worst | bound | violations | '
 'mismatches | denominator |\n'
 '| --- | --- | --- | --- | --- | --- | --- | --- | --- | --- |\n'
 '| rofl | 30 | 30 | 1.14 | 2.33 | 2.33 | inf | 0 | 0 | bgp-policy-path |\n'
 '| disco | 30 | 30 | 1.00 | 1.00 | 1.00 | 3 | 0 | 0 | shortest-as-path |\n'
 '\n'
 '- Disco all-pairs sweep: 90 pairs, max stretch 2.500 (bound 3), 0 '
 'undelivered, 0 probe violation(s).\n'
 '- rofl stretch tail (≥p99) by decision: successor +9.50, cache +5.00.\n'
 '- disco stretch tail (≥p99) by decision: landmark.route +1.80, '
 'landmark.descend +1.10.\n')
