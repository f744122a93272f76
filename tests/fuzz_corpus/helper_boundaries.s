; repro fuzz case — runtime helpers on boundary operands (divisor 0 included); chunk budgets expire inside the modeled loops
; replay: repro fuzz --replay helper_boundaries.s
; seed: 0x0
; sp: 0x2380
; mem-seed: 0x1
; mpu-segb1: 0x0
; mpu-segb2: 0x0
; mpu-sam: 0xFFFF
; mpu-ctl0: 0x0
    .text
    MOV #0x0000, R12
    MOV #0x0000, R13
    CALL #__udivmod
    MOV R12, &0x9000
    MOV R15, &0x9002
    MOV #0x0000, R12
    MOV #0x0001, R13
    CALL #__udivmod
    MOV R12, &0x9004
    MOV R15, &0x9006
    MOV #0x0000, R12
    MOV #0x7FFF, R13
    CALL #__udivmod
    MOV R12, &0x9008
    MOV R15, &0x900A
    MOV #0x0000, R12
    MOV #0x8000, R13
    CALL #__udivmod
    MOV R12, &0x900C
    MOV R15, &0x900E
    MOV #0x0000, R12
    MOV #0xFFFF, R13
    CALL #__udivmod
    MOV R12, &0x9010
    MOV R15, &0x9012
    MOV #0x0001, R12
    MOV #0x0000, R13
    CALL #__udivmod
    MOV R12, &0x9014
    MOV R15, &0x9016
    MOV #0x0001, R12
    MOV #0x0001, R13
    CALL #__udivmod
    MOV R12, &0x9018
    MOV R15, &0x901A
    MOV #0x0001, R12
    MOV #0x7FFF, R13
    CALL #__udivmod
    MOV R12, &0x901C
    MOV R15, &0x901E
    MOV #0x0001, R12
    MOV #0x8000, R13
    CALL #__udivmod
    MOV R12, &0x9020
    MOV R15, &0x9022
    MOV #0x0001, R12
    MOV #0xFFFF, R13
    CALL #__udivmod
    MOV R12, &0x9024
    MOV R15, &0x9026
    MOV #0x7FFF, R12
    MOV #0x0000, R13
    CALL #__udivmod
    MOV R12, &0x9028
    MOV R15, &0x902A
    MOV #0x7FFF, R12
    MOV #0x0001, R13
    CALL #__udivmod
    MOV R12, &0x902C
    MOV R15, &0x902E
    MOV #0x7FFF, R12
    MOV #0x7FFF, R13
    CALL #__udivmod
    MOV R12, &0x9030
    MOV R15, &0x9032
    MOV #0x7FFF, R12
    MOV #0x8000, R13
    CALL #__udivmod
    MOV R12, &0x9034
    MOV R15, &0x9036
    MOV #0x7FFF, R12
    MOV #0xFFFF, R13
    CALL #__udivmod
    MOV R12, &0x9038
    MOV R15, &0x903A
    MOV #0x8000, R12
    MOV #0x0000, R13
    CALL #__udivmod
    MOV R12, &0x903C
    MOV R15, &0x903E
    MOV #0x8000, R12
    MOV #0x0001, R13
    CALL #__udivmod
    MOV R12, &0x9040
    MOV R15, &0x9042
    MOV #0x8000, R12
    MOV #0x7FFF, R13
    CALL #__udivmod
    MOV R12, &0x9044
    MOV R15, &0x9046
    MOV #0x8000, R12
    MOV #0x8000, R13
    CALL #__udivmod
    MOV R12, &0x9048
    MOV R15, &0x904A
    MOV #0x8000, R12
    MOV #0xFFFF, R13
    CALL #__udivmod
    MOV R12, &0x904C
    MOV R15, &0x904E
    MOV #0xFFFF, R12
    MOV #0x0000, R13
    CALL #__udivmod
    MOV R12, &0x9050
    MOV R15, &0x9052
    MOV #0xFFFF, R12
    MOV #0x0001, R13
    CALL #__udivmod
    MOV R12, &0x9054
    MOV R15, &0x9056
    MOV #0xFFFF, R12
    MOV #0x7FFF, R13
    CALL #__udivmod
    MOV R12, &0x9058
    MOV R15, &0x905A
    MOV #0xFFFF, R12
    MOV #0x8000, R13
    CALL #__udivmod
    MOV R12, &0x905C
    MOV R15, &0x905E
    MOV #0xFFFF, R12
    MOV #0xFFFF, R13
    CALL #__udivmod
    MOV R12, &0x9060
    MOV R15, &0x9062
    MOV #0x0000, R12
    MOV #0x0000, R13
    CALL #__mulhi
    MOV R12, &0x9064
    MOV R15, &0x9066
    MOV #0x0000, R12
    MOV #0x0001, R13
    CALL #__mulhi
    MOV R12, &0x9068
    MOV R15, &0x906A
    MOV #0x0000, R12
    MOV #0x7FFF, R13
    CALL #__mulhi
    MOV R12, &0x906C
    MOV R15, &0x906E
    MOV #0x0000, R12
    MOV #0x8000, R13
    CALL #__mulhi
    MOV R12, &0x9070
    MOV R15, &0x9072
    MOV #0x0000, R12
    MOV #0xFFFF, R13
    CALL #__mulhi
    MOV R12, &0x9074
    MOV R15, &0x9076
    MOV #0x0001, R12
    MOV #0x0000, R13
    CALL #__mulhi
    MOV R12, &0x9078
    MOV R15, &0x907A
    MOV #0x0001, R12
    MOV #0x0001, R13
    CALL #__mulhi
    MOV R12, &0x907C
    MOV R15, &0x907E
    MOV #0x0001, R12
    MOV #0x7FFF, R13
    CALL #__mulhi
    MOV R12, &0x9080
    MOV R15, &0x9082
    MOV #0x0001, R12
    MOV #0x8000, R13
    CALL #__mulhi
    MOV R12, &0x9084
    MOV R15, &0x9086
    MOV #0x0001, R12
    MOV #0xFFFF, R13
    CALL #__mulhi
    MOV R12, &0x9088
    MOV R15, &0x908A
    MOV #0x7FFF, R12
    MOV #0x0000, R13
    CALL #__mulhi
    MOV R12, &0x908C
    MOV R15, &0x908E
    MOV #0x7FFF, R12
    MOV #0x0001, R13
    CALL #__mulhi
    MOV R12, &0x9090
    MOV R15, &0x9092
    MOV #0x7FFF, R12
    MOV #0x7FFF, R13
    CALL #__mulhi
    MOV R12, &0x9094
    MOV R15, &0x9096
    MOV #0x7FFF, R12
    MOV #0x8000, R13
    CALL #__mulhi
    MOV R12, &0x9098
    MOV R15, &0x909A
    MOV #0x7FFF, R12
    MOV #0xFFFF, R13
    CALL #__mulhi
    MOV R12, &0x909C
    MOV R15, &0x909E
    MOV #0x8000, R12
    MOV #0x0000, R13
    CALL #__mulhi
    MOV R12, &0x90A0
    MOV R15, &0x90A2
    MOV #0x8000, R12
    MOV #0x0001, R13
    CALL #__mulhi
    MOV R12, &0x90A4
    MOV R15, &0x90A6
    MOV #0x8000, R12
    MOV #0x7FFF, R13
    CALL #__mulhi
    MOV R12, &0x90A8
    MOV R15, &0x90AA
    MOV #0x8000, R12
    MOV #0x8000, R13
    CALL #__mulhi
    MOV R12, &0x90AC
    MOV R15, &0x90AE
    MOV #0x8000, R12
    MOV #0xFFFF, R13
    CALL #__mulhi
    MOV R12, &0x90B0
    MOV R15, &0x90B2
    MOV #0xFFFF, R12
    MOV #0x0000, R13
    CALL #__mulhi
    MOV R12, &0x90B4
    MOV R15, &0x90B6
    MOV #0xFFFF, R12
    MOV #0x0001, R13
    CALL #__mulhi
    MOV R12, &0x90B8
    MOV R15, &0x90BA
    MOV #0xFFFF, R12
    MOV #0x7FFF, R13
    CALL #__mulhi
    MOV R12, &0x90BC
    MOV R15, &0x90BE
    MOV #0xFFFF, R12
    MOV #0x8000, R13
    CALL #__mulhi
    MOV R12, &0x90C0
    MOV R15, &0x90C2
    MOV #0xFFFF, R12
    MOV #0xFFFF, R13
    CALL #__mulhi
    MOV R12, &0x90C4
    MOV R15, &0x90C6
    MOV #0x0000, R12
    MOV #0x0000, R13
    CALL #__divhi
    MOV R12, &0x90C8
    MOV R15, &0x90CA
    MOV #0x0000, R12
    MOV #0x0001, R13
    CALL #__divhi
    MOV R12, &0x90CC
    MOV R15, &0x90CE
    MOV #0x0000, R12
    MOV #0x7FFF, R13
    CALL #__divhi
    MOV R12, &0x90D0
    MOV R15, &0x90D2
    MOV #0x0000, R12
    MOV #0x8000, R13
    CALL #__divhi
    MOV R12, &0x90D4
    MOV R15, &0x90D6
    MOV #0x0000, R12
    MOV #0xFFFF, R13
    CALL #__divhi
    MOV R12, &0x90D8
    MOV R15, &0x90DA
    MOV #0x0001, R12
    MOV #0x0000, R13
    CALL #__divhi
    MOV R12, &0x90DC
    MOV R15, &0x90DE
    MOV #0x0001, R12
    MOV #0x0001, R13
    CALL #__divhi
    MOV R12, &0x90E0
    MOV R15, &0x90E2
    MOV #0x0001, R12
    MOV #0x7FFF, R13
    CALL #__divhi
    MOV R12, &0x90E4
    MOV R15, &0x90E6
    MOV #0x0001, R12
    MOV #0x8000, R13
    CALL #__divhi
    MOV R12, &0x90E8
    MOV R15, &0x90EA
    MOV #0x0001, R12
    MOV #0xFFFF, R13
    CALL #__divhi
    MOV R12, &0x90EC
    MOV R15, &0x90EE
    MOV #0x7FFF, R12
    MOV #0x0000, R13
    CALL #__divhi
    MOV R12, &0x90F0
    MOV R15, &0x90F2
    MOV #0x7FFF, R12
    MOV #0x0001, R13
    CALL #__divhi
    MOV R12, &0x90F4
    MOV R15, &0x90F6
    MOV #0x7FFF, R12
    MOV #0x7FFF, R13
    CALL #__divhi
    MOV R12, &0x90F8
    MOV R15, &0x90FA
    MOV #0x7FFF, R12
    MOV #0x8000, R13
    CALL #__divhi
    MOV R12, &0x90FC
    MOV R15, &0x90FE
    MOV #0x7FFF, R12
    MOV #0xFFFF, R13
    CALL #__divhi
    MOV R12, &0x9100
    MOV R15, &0x9102
    MOV #0x8000, R12
    MOV #0x0000, R13
    CALL #__divhi
    MOV R12, &0x9104
    MOV R15, &0x9106
    MOV #0x8000, R12
    MOV #0x0001, R13
    CALL #__divhi
    MOV R12, &0x9108
    MOV R15, &0x910A
    MOV #0x8000, R12
    MOV #0x7FFF, R13
    CALL #__divhi
    MOV R12, &0x910C
    MOV R15, &0x910E
    MOV #0x8000, R12
    MOV #0x8000, R13
    CALL #__divhi
    MOV R12, &0x9110
    MOV R15, &0x9112
    MOV #0x8000, R12
    MOV #0xFFFF, R13
    CALL #__divhi
    MOV R12, &0x9114
    MOV R15, &0x9116
    MOV #0xFFFF, R12
    MOV #0x0000, R13
    CALL #__divhi
    MOV R12, &0x9118
    MOV R15, &0x911A
    MOV #0xFFFF, R12
    MOV #0x0001, R13
    CALL #__divhi
    MOV R12, &0x911C
    MOV R15, &0x911E
    MOV #0xFFFF, R12
    MOV #0x7FFF, R13
    CALL #__divhi
    MOV R12, &0x9120
    MOV R15, &0x9122
    MOV #0xFFFF, R12
    MOV #0x8000, R13
    CALL #__divhi
    MOV R12, &0x9124
    MOV R15, &0x9126
    MOV #0xFFFF, R12
    MOV #0xFFFF, R13
    CALL #__divhi
    MOV R12, &0x9128
    MOV R15, &0x912A
    MOV #0x0000, R12
    MOV #0x0000, R13
    CALL #__remhi
    MOV R12, &0x912C
    MOV R15, &0x912E
    MOV #0x0000, R12
    MOV #0x0001, R13
    CALL #__remhi
    MOV R12, &0x9130
    MOV R15, &0x9132
    MOV #0x0000, R12
    MOV #0x7FFF, R13
    CALL #__remhi
    MOV R12, &0x9134
    MOV R15, &0x9136
    MOV #0x0000, R12
    MOV #0x8000, R13
    CALL #__remhi
    MOV R12, &0x9138
    MOV R15, &0x913A
    MOV #0x0000, R12
    MOV #0xFFFF, R13
    CALL #__remhi
    MOV R12, &0x913C
    MOV R15, &0x913E
    MOV #0x0001, R12
    MOV #0x0000, R13
    CALL #__remhi
    MOV R12, &0x9140
    MOV R15, &0x9142
    MOV #0x0001, R12
    MOV #0x0001, R13
    CALL #__remhi
    MOV R12, &0x9144
    MOV R15, &0x9146
    MOV #0x0001, R12
    MOV #0x7FFF, R13
    CALL #__remhi
    MOV R12, &0x9148
    MOV R15, &0x914A
    MOV #0x0001, R12
    MOV #0x8000, R13
    CALL #__remhi
    MOV R12, &0x914C
    MOV R15, &0x914E
    MOV #0x0001, R12
    MOV #0xFFFF, R13
    CALL #__remhi
    MOV R12, &0x9150
    MOV R15, &0x9152
    MOV #0x7FFF, R12
    MOV #0x0000, R13
    CALL #__remhi
    MOV R12, &0x9154
    MOV R15, &0x9156
    MOV #0x7FFF, R12
    MOV #0x0001, R13
    CALL #__remhi
    MOV R12, &0x9158
    MOV R15, &0x915A
    MOV #0x7FFF, R12
    MOV #0x7FFF, R13
    CALL #__remhi
    MOV R12, &0x915C
    MOV R15, &0x915E
    MOV #0x7FFF, R12
    MOV #0x8000, R13
    CALL #__remhi
    MOV R12, &0x9160
    MOV R15, &0x9162
    MOV #0x7FFF, R12
    MOV #0xFFFF, R13
    CALL #__remhi
    MOV R12, &0x9164
    MOV R15, &0x9166
    MOV #0x8000, R12
    MOV #0x0000, R13
    CALL #__remhi
    MOV R12, &0x9168
    MOV R15, &0x916A
    MOV #0x8000, R12
    MOV #0x0001, R13
    CALL #__remhi
    MOV R12, &0x916C
    MOV R15, &0x916E
    MOV #0x8000, R12
    MOV #0x7FFF, R13
    CALL #__remhi
    MOV R12, &0x9170
    MOV R15, &0x9172
    MOV #0x8000, R12
    MOV #0x8000, R13
    CALL #__remhi
    MOV R12, &0x9174
    MOV R15, &0x9176
    MOV #0x8000, R12
    MOV #0xFFFF, R13
    CALL #__remhi
    MOV R12, &0x9178
    MOV R15, &0x917A
    MOV #0xFFFF, R12
    MOV #0x0000, R13
    CALL #__remhi
    MOV R12, &0x917C
    MOV R15, &0x917E
    MOV #0xFFFF, R12
    MOV #0x0001, R13
    CALL #__remhi
    MOV R12, &0x9180
    MOV R15, &0x9182
    MOV #0xFFFF, R12
    MOV #0x7FFF, R13
    CALL #__remhi
    MOV R12, &0x9184
    MOV R15, &0x9186
    MOV #0xFFFF, R12
    MOV #0x8000, R13
    CALL #__remhi
    MOV R12, &0x9188
    MOV R15, &0x918A
    MOV #0xFFFF, R12
    MOV #0xFFFF, R13
    CALL #__remhi
    MOV R12, &0x918C
    MOV R15, &0x918E
    MOV #1, &0x01F2
